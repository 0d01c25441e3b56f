package main

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"net/http"
	"sync"
	"time"
)

const (
	// loadConnections is the generator's size: one process, this many
	// keep-alive connections and sender goroutines, chosen for a
	// 2-core host where the server needs the same two cores.
	loadConnections = 2
	// requestTimeout bounds one request; a failed request is charged
	// this latency so it misses every latency limit.
	requestTimeout = 10 * time.Second
)

// request is one prepared HTTP inference call and the exact bytes a
// correct server answers with.
type request struct {
	path string
	body []byte
	want []byte
}

// sample is one request's timeline, as offsets from the run's start.
// due is when the schedule wanted it sent (equal to sent in a closed
// loop); ok is transport success, status 200 and a body byte-identical
// to the oracle's.
type sample struct {
	due, sent, done time.Duration
	ok              bool
}

// latencyMs is the latency a user saw, from the due time, with a
// failure charged the full timeout.
func (s sample) latencyMs() float64 {
	if !s.ok {
		return float64(requestTimeout) / float64(time.Millisecond)
	}
	return float64(s.done-s.due) / float64(time.Millisecond)
}

func (s sample) serviceMs() float64 { return float64(s.done-s.sent) / float64(time.Millisecond) }
func (s sample) lateMs() float64    { return float64(s.sent-s.due) / float64(time.Millisecond) }

// send issues r, stamps the timeline and only then checks the body, so
// verification never sits inside a measured latency.
func send(srv *server, r *request, start time.Time, due time.Duration, tr *tracer, id int) sample {
	sentAt := time.Now()
	code, body, err := srv.do(context.Background(), http.MethodPost, r.path, r.body)
	doneAt := time.Now()
	s := sample{due: due, sent: sentAt.Sub(start), done: doneAt.Sub(start)}
	s.ok = err == nil && code == http.StatusOK && bytes.Equal(body, r.want)
	if tr != nil {
		root := tr.add("loadgen.request", 0, id, start.Add(due), doneAt)
		tr.add("ndserve.http", root, id, sentAt, doneAt)
	}
	return s
}

// closedLoop runs loadConnections clients for d, each sending its next
// request only when the previous answer is in. pick chooses the
// request for a client's i-th turn.
func closedLoop(srv *server, d time.Duration, tr *tracer, pick func(client, i int) *request) []sample {
	start := time.Now()
	per := make([][]sample, loadConnections)
	var wg sync.WaitGroup
	for c := 0; c < loadConnections; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; time.Since(start) < d; i++ {
				// Closed loop: a request is due the moment its client is free.
				per[c] = append(per[c], send(srv, pick(c, i), start, time.Since(start), tr, i*loadConnections+c))
			}
		}(c)
	}
	wg.Wait()
	var all []sample
	for _, p := range per {
		all = append(all, p...)
	}
	return all
}

// poissonSchedule draws arrival offsets of a Poisson process of the
// given rate (per second) over d from seed: exponential gaps, so the
// same seed is the same schedule.
func poissonSchedule(seed uint64, rate float64, d time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(int64(seed)))
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		at := time.Duration(t * float64(time.Second))
		if at >= d {
			return out
		}
		out = append(out, at)
	}
}

// openLoop sends on schedule whatever the server does: a dispatcher
// releases each request at its due time to loadConnections senders, a
// request that finds both busy waits its turn, and its latency still
// counts from the due time.
func openLoop(srv *server, schedule []time.Duration, tr *tracer, pick func(i int) *request) []sample {
	type job struct {
		i   int
		due time.Duration
	}
	// Sized to the whole schedule so the dispatcher never blocks on slow
	// senders: lateness must come from the server, not from the channel.
	jobs := make(chan job, len(schedule))
	out := make([]sample, len(schedule))
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < loadConnections; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				out[j.i] = send(srv, pick(j.i), start, j.due, tr, j.i)
			}
		}()
	}
	for i, due := range schedule {
		if wait := due - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		jobs <- job{i, due}
	}
	close(jobs)
	wg.Wait()
	return out
}

// loadSummary is what a run's samples reduce to.
type loadSummary struct {
	sent, ok, failed int
	latency          []float64 // ms from due time, failures at the timeout
	service          []float64 // ms from send, successes only
	late             []float64 // ms the generator ran behind schedule
}

func summarize(samples []sample) loadSummary {
	var s loadSummary
	s.sent = len(samples)
	for _, x := range samples {
		s.latency = append(s.latency, x.latencyMs())
		s.late = append(s.late, math.Max(0, x.lateMs()))
		if !x.ok {
			s.failed++
			continue
		}
		s.ok++
		s.service = append(s.service, x.serviceMs())
	}
	return s
}
