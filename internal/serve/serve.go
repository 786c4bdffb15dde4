// Package serve is the online location-service runtime: it embeds the
// simulation engine stack (mobility, link maintenance, hierarchy
// upkeep, CHLM tables) as a background event stream via
// simnet.Stepper, and serves location-query / location-update requests
// from a concurrent synthetic client population against the live
// snapshot — the offline→online shift the paper's §6 absorption
// argument implies but the batch runner cannot measure.
//
// Concurrency model: the engine goroutine advances simulation ticks
// under the write half of an RWMutex; shard workers and the request
// generator take the read half, so snapshot reads never overlap a
// tick. Requests flow through per-shard bounded queues with batched
// draining; a full queue sheds the request (counted, never blocked),
// which is the runtime's backpressure. All randomness on the serving
// side comes from its own rng streams, and the serving side never
// writes simulation state, so Results and traces are byte-identical
// with serving on or off (TestServeDoesNotPerturbSim).
//
// Unavailability: when a tick hands an owner's location entry to a new
// server (lm.Transfer), that owner's row is mid-handoff for a
// wall-clock window (Config.UnavailWindow). Queries arriving inside
// the window misroute: the worker counts the misroute, parks briefly
// (the client's retry backoff), and requeues the request, so
// handoff-induced unavailability surfaces as retries and tail latency
// rather than silent staleness.
package serve

import (
	"fmt"
	"sync"
	"sync/atomic"
	//lint:ignore forbiddenimport serving measures wall-clock request latency; simulated time still flows only through the DES clock
	"time"

	"repro/internal/lm"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/simnet"
	"repro/internal/topology"
	"repro/internal/workload"
)

// Metric names the runtime records into Config.Metrics.
const (
	MetricRequests   = "serve.requests"
	MetricQueries    = "serve.queries"
	MetricUpdates    = "serve.updates"
	MetricShed       = "serve.shed"
	MetricMisroutes  = "serve.misroutes"
	MetricRetries    = "serve.retries"
	MetricForced     = "serve.forced" // retry budget exhausted; served mid-handoff
	MetricBatches    = "serve.batches"
	MetricQueryPkts  = "serve.query_packets"
	MetricUpdatePkts = "serve.update_packets"
	MetricWindows    = "serve.unavail_windows"
	MetricUnavailNS  = "serve.unavail_ns"
	MetricTicks      = "serve.ticks"
	MetricQPS        = "serve.qps"           // gauge
	MetricQueryLat   = "serve.query_latency" // histogram
	MetricUpdateLat  = "serve.update_latency"
)

// maxRetries bounds how often one query is requeued across handoff
// windows before it is served from the mid-handoff row anyway.
const maxRetries = 8

// Config parameterizes the runtime. Zero-valued fields take the
// documented defaults; negative values on fields that must be positive
// are rejected.
type Config struct {
	// Sim is the embedded simulation. Serving reads its live snapshot
	// but never perturbs it.
	Sim simnet.Config

	// Rate is the total request arrival rate per wall-clock second.
	// Default 1000.
	Rate float64
	// QueryFraction splits requests into location queries vs
	// location updates. Default 0.8; negative means exactly 0
	// (all updates).
	QueryFraction float64

	// Shards is the number of request queues/workers. Default 4.
	Shards int
	// QueueDepth bounds each shard queue; a full queue sheds.
	// Default 1024.
	QueueDepth int
	// Batch bounds how many queued requests one worker drains per
	// lock acquisition. Default 64.
	Batch int

	// Pace is the wall-clock delay between simulation ticks, in
	// seconds — how much serving time each tick's snapshot gets.
	// Default 0.005; negative means no pacing (ticks run back to
	// back).
	Pace float64
	// UnavailWindow is the wall-clock span an owner's row stays
	// mid-handoff after a transfer, in seconds. Default 0.002;
	// negative disables unavailability windows.
	UnavailWindow float64

	// Seed feeds the serving-side rng streams (request arrivals and
	// pair picks). Independent of Sim.Seed.
	Seed uint64

	// Metrics receives the runtime's counters, gauges, and latency
	// histograms. nil records into a private registry (Results is
	// always populated) that is simply not exported anywhere.
	Metrics *obs.Registry
}

// fdef mirrors simnet's float-field convention: 0 selects def,
// negative selects exactly 0.
func fdef(v, def float64) float64 {
	//lint:ignore floateq zero is the documented unset-field sentinel
	if v == 0 {
		return def
	}
	if v < 0 {
		return 0
	}
	return v
}

func (c Config) withDefaults() Config {
	c.Rate = fdef(c.Rate, 1000)
	c.QueryFraction = fdef(c.QueryFraction, 0.8)
	c.Pace = fdef(c.Pace, 0.005)
	c.UnavailWindow = fdef(c.UnavailWindow, 0.002)
	if c.Shards == 0 {
		c.Shards = 4
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 1024
	}
	if c.Batch == 0 {
		c.Batch = 64
	}
	return c
}

func (c Config) validate() error {
	if c.Rate <= 0 {
		return fmt.Errorf("serve: Rate must be positive (got %v)", c.Rate)
	}
	if c.QueryFraction > 1 {
		return fmt.Errorf("serve: QueryFraction must be <= 1 (got %v)", c.QueryFraction)
	}
	if c.Shards < 1 {
		return fmt.Errorf("serve: Shards must be >= 1 (got %d)", c.Shards)
	}
	if c.QueueDepth < 1 {
		return fmt.Errorf("serve: QueueDepth must be >= 1 (got %d)", c.QueueDepth)
	}
	if c.Batch < 1 {
		return fmt.Errorf("serve: Batch must be >= 1 (got %d)", c.Batch)
	}
	return nil
}

// request is one synthetic client request. t0 is the wall enqueue
// time; latency is measured end to end, so queue wait and retry
// backoff count.
type request struct {
	q, d    int // querier and destination node
	query   bool
	retries int
	t0      int64 // unix ns
}

// Results summarizes one serving run.
type Results struct {
	Sim         *simnet.Results `json:"sim"`
	WallSeconds float64         `json:"wall_seconds"`
	Ticks       int64           `json:"ticks"`

	Requests  int64   `json:"requests"`
	Queries   int64   `json:"queries"`
	Updates   int64   `json:"updates"`
	Shed      int64   `json:"shed"`
	Misroutes int64   `json:"misroutes"`
	Retries   int64   `json:"retries"`
	QPS       float64 `json:"qps"`

	QueryLatency  obs.HistStat `json:"query_latency"`
	UpdateLatency obs.HistStat `json:"update_latency"`

	UnavailWindows int64   `json:"unavail_windows"`
	UnavailSeconds float64 `json:"unavail_seconds"`
}

// Server is the runtime. Build with New, run with Serve.
type Server struct {
	cfg    Config
	simCfg simnet.Config // defaulted copy, for RTX/Detour
	st     *simnet.Stepper
	sel    *lm.Selector

	// rw serializes simulation ticks (write half, engine goroutine)
	// against snapshot readers (read half, generator and workers).
	rw      sync.RWMutex
	shards  []chan request
	unavail []atomic.Int64 // per-owner mid-handoff deadline, unix ns
	stopGen chan struct{}
	wg      sync.WaitGroup // shard workers
	genWG   sync.WaitGroup

	windowNS int64

	mRequests, mQueries, mUpdates *obs.Counter
	mShed, mMisroutes, mRetries   *obs.Counter
	mForced, mBatches, mTicks     *obs.Counter
	mWindows, mUnavailNS          *obs.Counter
	mQueryPkts, mUpdatePkts       *obs.Counter
	gQPS                          *obs.Gauge
	hQuery, hUpdate               *obs.Histogram
}

// New validates cfg and builds the runtime, including the embedded
// simulation's initial snapshot.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	s := &Server{cfg: cfg, windowNS: int64(cfg.UnavailWindow * 1e9)}

	// Chain the unavailability observer in front of any user observer:
	// each tick's transfers open (or extend) their owners' windows.
	simCfg := cfg.Sim
	userObs := simCfg.Observer
	simCfg.Observer = func(ev simnet.ObsEvent) {
		if userObs != nil {
			userObs(ev)
		}
		if s.windowNS <= 0 {
			return
		}
		now := time.Now().UnixNano()
		for i := range ev.Transfers {
			s.markUnavailable(ev.Transfers[i].Owner, now)
		}
	}
	st, err := simnet.NewStepper(simCfg)
	if err != nil {
		return nil, err
	}
	s.st = st
	s.simCfg = st.Config()
	s.sel = st.Selector()
	s.unavail = make([]atomic.Int64, len(st.Positions()))
	s.shards = make([]chan request, cfg.Shards)
	for i := range s.shards {
		s.shards[i] = make(chan request, cfg.QueueDepth)
	}
	s.stopGen = make(chan struct{})

	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s.mRequests = reg.Counter(MetricRequests)
	s.mQueries = reg.Counter(MetricQueries)
	s.mUpdates = reg.Counter(MetricUpdates)
	s.mShed = reg.Counter(MetricShed)
	s.mMisroutes = reg.Counter(MetricMisroutes)
	s.mRetries = reg.Counter(MetricRetries)
	s.mForced = reg.Counter(MetricForced)
	s.mBatches = reg.Counter(MetricBatches)
	s.mTicks = reg.Counter(MetricTicks)
	s.mWindows = reg.Counter(MetricWindows)
	s.mUnavailNS = reg.Counter(MetricUnavailNS)
	s.mQueryPkts = reg.Counter(MetricQueryPkts)
	s.mUpdatePkts = reg.Counter(MetricUpdatePkts)
	s.gQPS = reg.Gauge(MetricQPS)
	s.hQuery = reg.Hist(MetricQueryLat)
	s.hUpdate = reg.Hist(MetricUpdateLat)
	return s, nil
}

// markUnavailable opens (or extends) owner's mid-handoff window.
// Called only from the engine goroutine; workers read the deadline
// atomically.
func (s *Server) markUnavailable(owner int, now int64) {
	if owner < 0 || owner >= len(s.unavail) {
		return
	}
	end := now + s.windowNS
	old := s.unavail[owner].Swap(end)
	if old <= now {
		s.mWindows.Inc()
		s.mUnavailNS.Add(s.windowNS)
	} else if end > old {
		s.mUnavailNS.Add(end - old)
	}
}

// Serve runs the simulation to its horizon while serving requests, and
// returns the combined results. It blocks until the run completes.
func (s *Server) Serve() (*Results, error) {
	start := time.Now()
	for i := range s.shards {
		s.wg.Add(1)
		go s.worker(s.shards[i])
	}
	s.genWG.Add(1)
	go s.generate()

	// Engine loop: ticks advance under the write lock; Pace wall
	// seconds of serving time between ticks.
	pace := time.Duration(s.cfg.Pace * float64(time.Second))
	ticks := int64(0)
	for {
		s.rw.Lock()
		ok := s.st.Step()
		s.rw.Unlock()
		if !ok {
			break
		}
		ticks++
		s.mTicks.Inc()
		if pace > 0 {
			time.Sleep(pace)
		}
	}

	close(s.stopGen)
	s.genWG.Wait()
	for i := range s.shards {
		close(s.shards[i])
	}
	s.wg.Wait()

	simRes, err := s.st.Results()
	if err != nil {
		return nil, err
	}
	s.st.Close()

	wall := time.Since(start).Seconds()
	served := s.mQueries.Value() + s.mUpdates.Value()
	qps := 0.0
	if wall > 0 {
		qps = float64(served) / wall
	}
	s.gQPS.Set(qps)

	res := &Results{
		Sim:            simRes,
		WallSeconds:    wall,
		Ticks:          ticks,
		Requests:       s.mRequests.Value(),
		Queries:        s.mQueries.Value(),
		Updates:        s.mUpdates.Value(),
		Shed:           s.mShed.Value(),
		Misroutes:      s.mMisroutes.Value(),
		Retries:        s.mRetries.Value(),
		QPS:            qps,
		QueryLatency:   s.hQuery.Stat(),
		UpdateLatency:  s.hUpdate.Stat(),
		UnavailWindows: s.mWindows.Value(),
		UnavailSeconds: float64(s.mUnavailNS.Value()) / 1e9,
	}
	return res, nil
}

// Run is New + Serve.
func Run(cfg Config) (*Results, error) {
	s, err := New(cfg)
	if err != nil {
		return nil, err
	}
	return s.Serve()
}

// generate is the open-loop client population: Poisson bursts at a
// fixed cadence, dispatched to shard queues by destination. Runs until
// the engine loop closes stopGen.
func (s *Server) generate() {
	defer s.genWG.Done()
	const interval = 2 * time.Millisecond
	arr := workload.Arrivals{Rate: s.cfg.Rate}
	src := rng.NewRoot(s.cfg.Seed).Stream("serve-arrivals")
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-s.stopGen:
			return
		case <-tick.C:
		}
		n := arr.Count(src, interval.Seconds())
		if n == 0 {
			continue
		}
		s.rw.RLock()
		nodes := s.st.Hierarchy().LevelNodes(0)
		if len(nodes) < 2 {
			s.rw.RUnlock()
			continue
		}
		now := time.Now().UnixNano()
		for i := 0; i < n; i++ {
			q := nodes[src.Intn(len(nodes))]
			d := nodes[src.Intn(len(nodes))]
			for d == q {
				d = nodes[src.Intn(len(nodes))]
			}
			req := request{q: q, d: d, query: src.Float64() < s.cfg.QueryFraction, t0: now}
			s.mRequests.Inc()
			s.dispatch(req)
		}
		s.rw.RUnlock()
	}
}

// dispatch routes a request to its destination's shard, shedding when
// the queue is full — bounded queues are the backpressure.
func (s *Server) dispatch(r request) {
	ch := s.shards[r.d%len(s.shards)]
	select {
	case ch <- r:
	default:
		s.mShed.Inc()
	}
}

// worker drains one shard queue in batches, resolving each request
// against the live snapshot under the read lock.
func (s *Server) worker(ch chan request) {
	defer s.wg.Done()
	hop := topology.NewEuclideanHops(s.st.Positions(), s.simCfg.RTX, s.simCfg.Detour)
	var scr lm.QueryScratch
	batch := make([]request, 0, s.cfg.Batch)
	retry := make([]request, 0, maxRetries)
	for {
		first, ok := <-ch
		if !ok {
			return
		}
		batch = append(batch[:0], first)
	drain:
		for len(batch) < s.cfg.Batch {
			select {
			case r, more := <-ch:
				if !more {
					break drain
				}
				batch = append(batch, r)
			default:
				break drain
			}
		}
		s.mBatches.Inc()
		// Process the batch; requests that misroute into a handoff
		// window stay worker-local: park until the earliest window
		// expires (the client's retry backoff), then reprocess.
		work := batch
		for {
			retry = retry[:0]
			var parkUntil int64

			s.rw.RLock()
			h, ids, tbl := s.st.Hierarchy(), s.st.Identities(), s.st.Table()
			for _, r := range work {
				now := time.Now().UnixNano()
				if r.query {
					if dl := s.unavail[r.d].Load(); dl > now {
						// Mid-handoff: the query misroutes.
						s.mMisroutes.Inc()
						if r.retries < maxRetries {
							r.retries++
							s.mRetries.Inc()
							retry = append(retry, r)
							if parkUntil == 0 || dl < parkUntil {
								parkUntil = dl
							}
							continue
						}
						s.mForced.Inc()
					}
					res := lm.QueryWith(s.sel, h, ids, hop, r.q, r.d, &scr)
					s.mQueryPkts.Add(int64(res.Packets))
					s.mQueries.Inc()
					s.hQuery.Observe(float64(time.Now().UnixNano()-r.t0) / 1e9)
					continue
				}
				// Location update: the owner refreshes its entry with
				// each of its current per-level servers.
				pkts := 0
				for k := tbl.Levels(r.d); k >= 1; k-- {
					if sv := tbl.Server(r.d, k); sv >= 0 {
						pkts += hop.Hops(r.d, sv)
					}
				}
				s.mUpdatePkts.Add(int64(pkts))
				s.mUpdates.Inc()
				s.hUpdate.Observe(float64(time.Now().UnixNano()-r.t0) / 1e9)
			}
			s.rw.RUnlock()

			if len(retry) == 0 {
				break
			}
			if wait := parkUntil - time.Now().UnixNano(); wait > 0 {
				if maxWait := int64(5 * time.Millisecond); wait > maxWait {
					wait = maxWait
				}
				time.Sleep(time.Duration(wait))
			}
			work, retry = retry, work
		}
		batch, retry = work[:0], retry[:0]
	}
}
