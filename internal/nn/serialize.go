package nn

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sync"
)

// Weight serialization: a minimal, deterministic binary format
// ("NDWT1") holding every parameter slice of the network in layer
// order. Replaces the framework checkpoint loading a production
// integration would have; enough to move trained weights in and out
// of the engine and to round-trip models between processes.

const weightsMagic = "NDWT1"

// paramSlices returns every parameter buffer of the network in a
// deterministic order (layer order, and a fixed within-layer order).
func (n *Network) paramSlices() [][]float32 {
	var out [][]float32
	appendBN := func(bn *BNParams) {
		if bn != nil {
			out = append(out, bn.Gamma, bn.Beta, bn.Mean, bn.Var)
		}
	}
	appendConv := func(c *ConvUnit) {
		out = append(out, c.Weights.Data)
		if c.Bias != nil {
			out = append(out, c.Bias)
		}
		appendBN(c.BN)
	}
	var walk func(ls []Layer)
	walk = func(ls []Layer) {
		for _, l := range ls {
			switch v := l.(type) {
			case *ConvUnit:
				appendConv(v)
			case *Bottleneck:
				walk(v.sublayers())
			case *BasicBlock:
				walk(v.sublayers())
			case *DepthwiseSeparable:
				out = append(out, v.DWFilter.Data)
				appendBN(v.DWBN)
				appendConv(v.PW)
			case *FC:
				out = append(out, v.W.Data)
				if v.B != nil {
					out = append(out, v.B)
				}
			}
		}
	}
	walk(n.Layers)
	return out
}

// invalidateCaches drops derived parameter caches (BN-folded weights,
// pre-transformed filters, FC transposes and conv forms) after the underlying
// parameters change. Weight loading is an exclusive operation — it
// rewrites the parameter slices in place — so resetting the sync.Once
// guards here is safe; no Forward may be in flight.
func (n *Network) invalidateCaches() {
	var walk func(ls []Layer)
	clearConv := func(c *ConvUnit) {
		c.foldOnce = sync.Once{}
		c.folded, c.foldedB = nil, nil
		c.packMu.Lock()
		c.packedRaw, c.packedFolded = nil, nil
		c.packMu.Unlock()
	}
	walk = func(ls []Layer) {
		for _, l := range ls {
			switch v := l.(type) {
			case *ConvUnit:
				clearConv(v)
			case *Bottleneck:
				walk(v.sublayers())
			case *BasicBlock:
				walk(v.sublayers())
			case *DepthwiseSeparable:
				clearConv(v.PW)
			case *FC:
				v.wtOnce = sync.Once{}
				v.wt = nil
				v.convOnce = sync.Once{}
				v.conv = nil
			}
		}
	}
	walk(n.Layers)
}

// WriteWeights serialises every parameter of the network to w.
func (n *Network) WriteWeights(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(weightsMagic); err != nil {
		return err
	}
	slices := n.paramSlices()
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(slices))); err != nil {
		return err
	}
	var buf [4]byte
	for _, s := range slices {
		if err := binary.Write(bw, binary.LittleEndian, uint64(len(s))); err != nil {
			return err
		}
		for _, v := range s {
			binary.LittleEndian.PutUint32(buf[:], math.Float32bits(v))
			if _, err := bw.Write(buf[:]); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadWeights deserialises parameters written by WriteWeights into
// this network, which must have the identical architecture. Every
// slice length is validated before anything is overwritten.
func (n *Network) ReadWeights(r io.Reader) error {
	br := bufio.NewReader(r)
	magic := make([]byte, len(weightsMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return fmt.Errorf("nn: reading weights header: %w", err)
	}
	if string(magic) != weightsMagic {
		return fmt.Errorf("nn: bad weights magic %q", magic)
	}
	var count uint32
	if err := binary.Read(br, binary.LittleEndian, &count); err != nil {
		return err
	}
	slices := n.paramSlices()
	if int(count) != len(slices) {
		return fmt.Errorf("nn: weight file has %d tensors, network has %d", count, len(slices))
	}
	// Stage into temporaries so a malformed file cannot leave the
	// network half-loaded.
	staged := make([][]float32, len(slices))
	var buf [4]byte
	for i, s := range slices {
		var length uint64
		if err := binary.Read(br, binary.LittleEndian, &length); err != nil {
			return err
		}
		if int(length) != len(s) {
			return fmt.Errorf("nn: tensor %d has %d elements in file, %d in network", i, length, len(s))
		}
		tmp := make([]float32, length)
		for j := range tmp {
			if _, err := io.ReadFull(br, buf[:]); err != nil {
				return err
			}
			tmp[j] = math.Float32frombits(binary.LittleEndian.Uint32(buf[:]))
		}
		staged[i] = tmp
	}
	for i, s := range slices {
		copy(s, staged[i])
	}
	n.invalidateCaches()
	return nil
}
