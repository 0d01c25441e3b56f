package serve

// The integrity sentinel (DESIGN.md §12): a background prober that
// spends idle cycles re-proving the bit-exactness contract the fast
// paths rest on. Each tick, if and only if the runtime's admission
// gate and the tenant gate of every registry with a model target are
// fully idle (nothing in flight, nothing queued — the sentinel never
// competes with a real request for a core), one round-robin target is
// probed with a golden integer-valued input and compared bit-for-bit
// against the single-threaded reference:
//
//   - kernel-family targets: every registered dispatch family
//     (core.KernelFamilyNames) through core.VerifyKernelFamily. A
//     miscompare quarantines the family out of dispatch — every plan
//     bound to it, cached or not, runs the bit-identical looped
//     fallback from its next execution. The probe keeps running while
//     quarantined (it drives the family's own body), so the first clean
//     probe restores the family.
//   - model targets: each registered model's fast engine against its
//     reference engine (installed by Registry.Register, removed by
//     Unregister). A miscompare quarantines the model to its
//     reference path; a clean probe restores it.
//
// The two target kinds cover different failure domains: the family
// probe exercises the dispatch kernels in isolation (cheap, fixed
// cost), the model probe exercises the whole layer stack — packed
// weights, epilogues, plan memos — end to end.

import (
	"errors"
	"sync"
	"time"

	"ndirect/internal/core"
)

// sentinelTarget is one dynamically registered probe (model targets;
// kernel families are enumerated statically).
type sentinelTarget struct {
	id    string
	idle  func() bool // the owning registry's tenant gate is idle
	probe func()
}

type sentinel struct {
	rt       *Runtime
	interval time.Duration
	stopCh   chan struct{}
	done     chan struct{}

	mu     sync.Mutex
	models []*sentinelTarget
	cursor int
}

func newSentinel(rt *Runtime, interval time.Duration) *sentinel {
	s := &sentinel{
		rt:       rt,
		interval: interval,
		stopCh:   make(chan struct{}),
		done:     make(chan struct{}),
	}
	go s.loop()
	return s
}

func (s *sentinel) stop() {
	select {
	case <-s.stopCh: // already stopped
	default:
		close(s.stopCh)
	}
	<-s.done
}

// addSentinelTarget registers a model probe with the runtime's
// sentinel (no-op when the sentinel is disabled). id must be unique;
// re-adding an id replaces the previous target.
func (rt *Runtime) addSentinelTarget(id string, idle func() bool, probe func()) {
	if rt.sentinel == nil {
		return
	}
	s := rt.sentinel
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, t := range s.models {
		if t.id == id {
			s.models[i] = &sentinelTarget{id: id, idle: idle, probe: probe}
			return
		}
	}
	s.models = append(s.models, &sentinelTarget{id: id, idle: idle, probe: probe})
}

// removeSentinelTarget drops a model probe (no-op when absent or when
// the sentinel is disabled).
func (rt *Runtime) removeSentinelTarget(id string) {
	if rt.sentinel == nil {
		return
	}
	s := rt.sentinel
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, t := range s.models {
		if t.id == id {
			s.models = append(s.models[:i], s.models[i+1:]...)
			return
		}
	}
}

func (s *sentinel) loop() {
	defer close(s.done)
	tick := time.NewTicker(s.interval)
	defer tick.Stop()
	fams := core.KernelFamilyNames()
	for {
		select {
		case <-s.stopCh:
			return
		case <-tick.C:
			s.tick(fams)
		}
	}
}

// tick probes at most one target. The cursor advances even when the
// probe is skipped for load, so a busy runtime cycles fairly through
// its targets during whatever idle windows it does get.
func (s *sentinel) tick(fams []string) {
	if s.rt.gate.InFlight() != 0 || s.rt.gate.Queued() != 0 {
		return // a real request is (or is about to be) running: stay out of its way
	}
	s.mu.Lock()
	total := len(fams) + len(s.models)
	if total == 0 {
		s.mu.Unlock()
		return
	}
	i := s.cursor % total
	s.cursor++
	// Registry requests admit through their tenant gate, never the
	// runtime gate: every probe, kernel family or model, waits until
	// no registry that owns a model target has one in flight or queued.
	for _, t := range s.models {
		if !t.idle() {
			s.mu.Unlock()
			return
		}
	}
	var target *sentinelTarget
	if i >= len(fams) {
		target = s.models[i-len(fams)]
	}
	s.mu.Unlock()

	if target == nil {
		s.probeKernelFamily(fams[i])
		return
	}
	s.rt.sentinelProbes.Add(1)
	target.probe()
}

// probeKernelFamily runs one family's golden probe and advances the
// quarantine machine: miscompare → quarantine (once), clean while
// quarantined → restore. Probe-infrastructure errors (planning
// failures) move nothing — only a proven miscompare is evidence.
func (s *sentinel) probeKernelFamily(name string) {
	rt := s.rt
	rt.sentinelProbes.Add(1)
	err := core.VerifyKernelFamily(name)
	switch {
	case err == nil:
		if core.KernelFamilyQuarantined(name) && core.RestoreKernelFamily(name) {
			rt.kernelRestores.Add(1)
			core.Logf("serve: sentinel: kernel family %s probes clean; restored to dispatch", name)
		}
	case errors.Is(err, core.ErrIntegrity):
		rt.integrityFailures.Add(1)
		if !core.KernelFamilyQuarantined(name) && core.QuarantineKernelFamily(name) {
			rt.kernelQuarantines.Add(1)
			core.Logf("serve: sentinel: kernel family %s miscomputes its golden probe; quarantined out of dispatch: %v",
				name, err)
		}
	}
}
