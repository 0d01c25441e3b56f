package core

// The packing micro-kernel of §5.3. For one register tile at output
// position (oh, qt0) and channel tile [ct, ct+tc), it gathers the
// R × tc × wIn input elements the main micro-kernel will touch into a
// linear buffer laid out [tc][R][wIn] — smaller than the L1 data cache
// by Equation 1 — zero-filling positions that fall in the padding
// halo. Every iteration of loop L7 then reads unit-stride from this
// buffer.
//
// With overlapped packing (the §5.3 optimisation), the first L7
// iteration interleaves the buffer stores with the FMA stream of the
// first V_k block (Plan.packCompute in kernel.go); SequentialPack
// mode calls these routines stand-alone first, which is the behaviour
// Figure 5 ablates.

// packGeometry captures the per-tile packing coordinates shared by
// the NCHW and NHWC readers.
type packGeometry struct {
	ihBase int // first input row = oh*str - pad
	iwBase int // first input column = qt0*str - pad
	wIn    int // packed row width = (Vw-1)*str + S
}

func (p *Plan) geometry(oh, qt0 int) packGeometry {
	return packGeometry{
		ihBase: oh*p.Shape.Str - p.Shape.Pad,
		iwBase: qt0*p.Shape.Str - p.Shape.Pad,
		wIn:    (p.RT.Vw-1)*p.Shape.Str + p.Shape.S,
	}
}

// packNCHW fills buf[tc][R][wIn] from an NCHW input for batch image n
// and channel tile [ct, ct+tc).
func packNCHW(in []float32, buf []float32, g packGeometry, n, c, h, w, ct, tc, r int) {
	for cv := 0; cv < tc; cv++ {
		chanBase := ((n*c + ct + cv) * h) * w
		for rr := 0; rr < r; rr++ {
			dst := buf[(cv*r+rr)*g.wIn : (cv*r+rr+1)*g.wIn]
			ih := g.ihBase + rr
			if ih < 0 || ih >= h {
				clear(dst)
				continue
			}
			src := in[chanBase+ih*w : chanBase+(ih+1)*w]
			packRow(dst, src, g.iwBase, w)
		}
	}
}

// packNHWC fills the same buffer layout from an NHWC input, gathering
// along the strided channel dimension.
func packNHWC(in []float32, buf []float32, g packGeometry, n, c, h, w, ct, tc, r int) {
	for cv := 0; cv < tc; cv++ {
		cc := ct + cv
		for rr := 0; rr < r; rr++ {
			dst := buf[(cv*r+rr)*g.wIn : (cv*r+rr+1)*g.wIn]
			ih := g.ihBase + rr
			if ih < 0 || ih >= h {
				clear(dst)
				continue
			}
			rowBase := ((n*h + ih) * w) * c
			for x := 0; x < g.wIn; x++ {
				iw := g.iwBase + x
				if iw < 0 || iw >= w {
					dst[x] = 0
				} else {
					dst[x] = in[rowBase+iw*c+cc]
				}
			}
		}
	}
}

// packRow copies wIn elements of src starting at iwBase into dst,
// zero-filling out-of-range columns (left/right padding halo).
func packRow(dst, src []float32, iwBase, w int) {
	x := 0
	// Left halo.
	for ; x < len(dst) && iwBase+x < 0; x++ {
		dst[x] = 0
	}
	// Body: contiguous copy.
	end := len(dst)
	if iwBase+end > w {
		end = w - iwBase
	}
	if end > x {
		copy(dst[x:end], src[iwBase+x:iwBase+end])
		x = end
	}
	// Right halo.
	for ; x < len(dst); x++ {
		dst[x] = 0
	}
}
