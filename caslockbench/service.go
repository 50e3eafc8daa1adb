package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bench"
	"repro/internal/experiments"
	"repro/internal/lock"
	"repro/internal/miter"
	"repro/internal/netlist"
	"repro/internal/service"
	"repro/internal/synth"
	"repro/internal/telemetry"
)

// serviceWorkload drives the attack service over HTTP in a closed loop:
// each client submits a job, reads its event stream until done, then
// fetches the result, and only then submits its next job. Jobs are
// small paper-regime 12-input attacks, so HTTP, queue, cache and events
// (and the journal, when on) carry most of the work; one request in four
// resubmits the job before it, which is either still running (a
// singleflight join) or finished (a cache hit).
type serviceWorkload struct {
	clients int
	// journal arms the service's write-ahead job journal, which fsyncs
	// every job transition.
	journal bool
}

const (
	// serviceBatchJobs is how many jobs one batch drains, about 0.6 s of
	// service time.
	serviceBatchJobs = 384
	// serviceWorkers is the service's attack worker count.
	serviceWorkers = 2
	// serviceTailPct leaves about 150 samples beyond it at the usual
	// ~15 000 jobs a run. p99.9, which would leave about 15, spread 0.57
	// (Q3-Q1 over median) across five runs against p99's 0.12-0.14.
	serviceTailPct = 99
	// resultRetry is the client's pause before re-reading a result that
	// the event stream already reported done (HTTP 409 until the
	// outcome is stored).
	resultRetry = 200 * time.Microsecond
	// resultPatience bounds that wait; a result still unreadable after it
	// is a failure.
	resultPatience = 5 * time.Second
)

// svcJob is one prepared submission.
type svcJob struct {
	label  string
	seed   int64
	body   []byte // AttackRequest JSON
	locked string // bench text, parsed again for the proof
	host   *netlist.Circuit
	dips   uint64 // expected total_dips
}

// svcOutcome is what a client observed for one job.
type svcOutcome struct {
	latency time.Duration
	// submit, wait and fetch are the three HTTP phases: the POST, the
	// event stream until done, and reading the result once done.
	submit, wait, fetch time.Duration
	notReady            bool // first /result read was 409
	resumed             bool // the event stream ended before done and was re-opened
	rejected            bool // 429
	fail                string
	key                 string
	dips, queries       uint64
	queueWait, runTime  time.Duration // from the job's status timestamps
	cached              bool
}

// svcBatch builds one batch of requests.
func svcBatch(rec *recorder, seed int64) ([]*svcJob, error) {
	jobs := make([]*svcJob, serviceBatchJobs)
	for i := range jobs {
		if i%4 == 3 {
			jobs[i] = jobs[i-1]
			continue
		}
		s := seed + int64(i)*31
		chainStr := chains12[i%len(chains12)]
		cfg := synth.Config{Name: "svc", Inputs: 16, Outputs: 4, Gates: 60, Seed: s}
		t := rec.now()
		host, err := synth.Generate(cfg)
		if err != nil {
			return nil, err
		}
		chain := lock.MustParseChain(chainStr)
		kg := keyGates(chain.NumInputs(), s+2)
		locked, cas, err := lock.ApplyCAS(host, lock.CASOptions{Chain: chain, Seed: s + 1,
			KeyGates1: kg, KeyGates2: append([]netlist.GateType(nil), kg...)})
		if err != nil {
			return nil, err
		}
		lockedText, err := bench.WriteString(locked.Circuit)
		if err != nil {
			return nil, err
		}
		hostText, err := bench.WriteString(host)
		if err != nil {
			return nil, err
		}
		body, err := json.Marshal(service.AttackRequest{Locked: lockedText, Oracle: hostText, Seed: s})
		if err != nil {
			return nil, err
		}
		rec.add("instance", t, 0)
		k1A, k2A, k1B, k2B := experiments.BDDLemma1Assignment(chain)
		count, err := experiments.BDDDIPCount(chain, cas.KeyGates1, cas.KeyGates2, k1A, k2A, k1B, k2B)
		if err != nil {
			return nil, err
		}
		jobs[i] = &svcJob{label: "svc/" + chainStr, seed: s, body: body, locked: lockedText,
			host: host, dips: count.Uint64()}
	}
	return jobs, nil
}

// daemon is one running service behind an HTTP test server.
type daemon struct {
	svc *service.Service
	srv *httptest.Server
	reg *telemetry.Registry
	dir string
}

// startDaemon starts the service, with its journal in a fresh
// directory when the workload arms it, served over loopback HTTP.
func (w *serviceWorkload) startDaemon(traced bool) (*daemon, error) {
	d := &daemon{}
	if w.journal {
		var err error
		if d.dir, err = os.MkdirTemp("", "caslockbench-journal-"); err != nil {
			return nil, err
		}
	}
	if traced {
		d.reg = telemetry.New()
	}
	var err error
	d.svc, err = service.New(service.Config{Workers: serviceWorkers, JournalDir: d.dir, Registry: d.reg})
	if err != nil {
		if d.dir != "" {
			os.RemoveAll(d.dir)
		}
		return nil, err
	}
	d.srv = httptest.NewServer(d.svc.Handler())
	return d, nil
}

// stop closes the server (waiting for open requests), then the service,
// then removes the journal.
func (d *daemon) stop() {
	d.srv.Close()
	d.svc.Close()
	if d.dir != "" {
		os.RemoveAll(d.dir)
	}
}

func (w *serviceWorkload) measure(r *run) error {
	r.tailPct = serviceTailPct
	var jobs []*svcJob
	var d *daemon
	for i := 0; i < setupReps; i++ {
		if d != nil {
			d.stop()
		}
		t := time.Now()
		var err error
		if jobs, err = svcBatch(r.rec, batchSeed(r.seed, 0)); err != nil {
			return err
		}
		if d, err = w.startDaemon(false); err != nil {
			return err
		}
		r.setup = append(r.setup, time.Since(t).Seconds())
	}
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4 * w.clients}}
	defer client.CloseIdleConnections()

	var traced []svcOutcome
	var tracedReg *telemetry.Registry
	first := jobs[0]
	for b := 0; ; b++ {
		isTraced := r.trace && b%2 == 1
		if b > 0 {
			// Each batch gets a fresh daemon: the service keeps every job
			// it has seen, so one daemon per run would grow with the run.
			var err error
			if jobs, err = svcBatch(nil, batchSeed(r.seed, b)); err != nil {
				return err
			}
			if d, err = w.startDaemon(isTraced); err != nil {
				return err
			}
		}
		outs := make([]svcOutcome, len(jobs))
		r.timed(isTraced, func() {
			var next atomic.Int64
			var wg sync.WaitGroup
			for c := 0; c < w.clients; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						i := int(next.Add(1)) - 1
						if i >= len(jobs) {
							return
						}
						outs[i] = runJob(client, d.srv.URL, jobs[i])
					}
				}()
			}
			wg.Wait()
		})
		if isTraced {
			r.tracedOps += len(jobs)
			traced = append(traced, outs...)
			tracedReg = d.reg
		} else {
			r.ops += len(jobs)
			for _, o := range outs {
				r.latencies = append(r.latencies, float64(o.latency)/1e6)
			}
		}
		d.stop()
		// Keys are proven once the batch's daemon has stopped, so proof
		// CPU never competes with the service.
		w.verify(r, jobs, outs)
		if !r.continueAfter(b) {
			break
		}
	}
	if r.trace {
		r.layers = serviceLayers(r, traced, tracedReg, first)
	}
	return nil
}

// verify checks every job of a batch and records the failures.
func (w *serviceWorkload) verify(r *run, jobs []*svcJob, outs []svcOutcome) {
	proven := make(map[string]bool)
	for i, o := range outs {
		j := jobs[i]
		r.attempted++
		wrong := false
		if o.fail == "" {
			if r.flip && o.key != "" {
				o.key = string('0'+'1'-o.key[0]) + o.key[1:]
			}
			o.fail, wrong = w.check(j, o, proven)
		}
		if o.fail != "" {
			r.fail(j.label, j.seed, o.fail, wrong)
			continue
		}
		r.queries = append(r.queries, float64(o.queries))
	}
}

// check verifies one finished job: the DIP count matches the symbolic
// count and the key is SAT-proven to unlock the design.
func (w *serviceWorkload) check(j *svcJob, o svcOutcome, proven map[string]bool) (reason string, wrong bool) {
	if o.dips != j.dips {
		return fmt.Sprintf("DIP count %d, want %d", o.dips, j.dips), true
	}
	id := j.locked + "\x00" + o.key
	if ok, seen := proven[id]; seen {
		if !ok {
			return "key is not SAT-proven equivalent", true
		}
		return "", false
	}
	locked, err := bench.ReadString("locked", j.locked)
	if err != nil {
		return "proof: " + err.Error(), false
	}
	key := make([]bool, len(o.key))
	for i, c := range o.key {
		key[i] = c == '1'
	}
	ok, err := miter.ProveUnlockedHashed(locked, key, j.host)
	if err != nil {
		return "proof: " + err.Error(), false
	}
	proven[id] = ok
	if !ok {
		return "key is not SAT-proven equivalent", true
	}
	return "", false
}

// runJob is one client op: submit, follow the event stream to done,
// read the result.
func runJob(client *http.Client, base string, j *svcJob) (o svcOutcome) {
	start := time.Now()
	defer func() { o.latency = time.Since(start) }()

	resp, err := client.Post(base+"/v1/attacks", "application/json", bytes.NewReader(j.body))
	if err != nil {
		o.fail = "http submit: " + err.Error()
		return o
	}
	var st service.JobStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	o.submit = time.Since(start)
	switch {
	case resp.StatusCode == http.StatusTooManyRequests:
		o.rejected, o.fail = true, "http submit: 429 queue full"
		return o
	case resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK:
		o.fail = fmt.Sprintf("http submit: status %d", resp.StatusCode)
		return o
	case err != nil:
		o.fail = "http submit: " + err.Error()
		return o
	}

	t := time.Now()
	state, resumed, err := awaitDone(client, base+"/v1/attacks/"+st.ID+"/events")
	o.resumed = resumed
	o.wait = time.Since(t)
	if err != nil {
		o.fail = "http events: " + err.Error()
		return o
	}
	if state != string(service.StateDone) {
		o.fail = "job ended " + state
		return o
	}

	t = time.Now()
	for first := true; ; first = false {
		var doc struct {
			Status service.JobStatus  `json:"status"`
			Result *service.JobResult `json:"result"`
		}
		resp, err := client.Get(base + "/v1/attacks/" + st.ID + "/result")
		if err != nil {
			o.fail = "http result: " + err.Error()
			return o
		}
		if resp.StatusCode == http.StatusConflict {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			o.notReady = o.notReady || first
			if time.Since(t) > resultPatience {
				o.fail = fmt.Sprintf("http result: still 409 %v after done", resultPatience)
				return o
			}
			time.Sleep(resultRetry)
			continue
		}
		err = json.NewDecoder(resp.Body).Decode(&doc)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || err != nil || doc.Result == nil {
			o.fail = fmt.Sprintf("http result: status %d", resp.StatusCode)
			return o
		}
		o.key, o.dips, o.queries = doc.Result.Key, doc.Result.TotalDIPs, doc.Result.OracleQueries
		o.cached = doc.Status.Cached
		if s, f := doc.Status.StartedAt, doc.Status.FinishedAt; s != nil && f != nil {
			o.queueWait = s.Sub(doc.Status.SubmittedAt)
			o.runTime = f.Sub(*s)
		}
		break
	}
	o.fetch = time.Since(t)
	return o
}

// maxStreamResumes bounds how often one job's event stream is re-opened.
const maxStreamResumes = 3

// awaitDone reads a job's SSE stream until its done event and returns
// the terminal state the event carries, and whether the stream had to be
// re-opened. A stream can close without its done event: the server's
// streamBus reads an empty subscription, the job seals (done published,
// bus closed), and the handler then sees the subscription closed and
// returns without draining it. The client resumes after the last event
// id it saw, as an EventSource does, and the resume is reported as
// service.stream_resume_share.
func awaitDone(client *http.Client, url string) (state string, resumed bool, err error) {
	lastID := ""
	for attempt := 0; attempt <= maxStreamResumes; attempt++ {
		state, lastID, err = readStream(client, url, lastID)
		if err != nil || state != "" {
			return state, attempt > 0, err
		}
	}
	return "", true, fmt.Errorf("stream ended without a done event %d times", maxStreamResumes+1)
}

// readStream reads one SSE connection. It returns the done event's state,
// or "" with the last event id when the stream ended before done.
func readStream(client *http.Client, url, after string) (state, lastID string, err error) {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return "", after, err
	}
	if after != "" {
		req.Header.Set("Last-Event-ID", after)
	}
	resp, err := client.Do(req)
	if err != nil {
		return "", after, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", after, fmt.Errorf("status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	lastID = after
	isDone := false
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "id: "):
			lastID = line[len("id: "):]
		case line == "event: done":
			isDone = true
		case isDone && strings.HasPrefix(line, "data: "):
			var ev struct {
				Fields map[string]string `json:"fields"`
			}
			if err := json.Unmarshal([]byte(line[len("data: "):]), &ev); err != nil {
				return "", lastID, err
			}
			return ev.Fields["state"], lastID, nil
		}
	}
	return "", lastID, sc.Err()
}

// serviceLayers derives the per-layer metrics of the traced batches.
func serviceLayers(r *run, outs []svcOutcome, reg *telemetry.Registry, first *svcJob) map[string]float64 {
	m := make(map[string]float64)
	c := reg.Snapshot().Counters
	var submit, qwait, runT, d2r []float64
	var phases, lat, notReady, resumed, rejected float64
	for _, o := range outs {
		submit = append(submit, float64(o.submit)/1e6)
		if !o.cached && o.runTime > 0 && o.queueWait >= 0 {
			qwait = append(qwait, float64(o.queueWait)/1e6)
			runT = append(runT, float64(o.runTime)/1e6)
		}
		if o.fetch > 0 {
			d2r = append(d2r, float64(o.fetch)/1e6)
		}
		phases += float64(o.submit + o.wait + o.fetch)
		lat += float64(o.latency)
		if o.notReady {
			notReady++
		}
		if o.resumed {
			resumed++
		}
		if o.rejected {
			rejected++
		}
	}
	n := float64(len(outs))
	var instNs, instN float64
	for _, s := range r.rec.spans {
		if s.name == "instance" {
			instNs += float64(s.end - s.start)
			instN++
		}
	}
	m["instance.build_ms"] = ratio(instNs/1e6, instN)
	locked, err := bench.ReadString("locked", first.locked)
	if err == nil {
		for k, v := range kernelNs(locked) {
			m[k] = v
		}
	}
	submitted := float64(c["service_jobs_submitted_total"])
	m["go.alloc_mb_per_op"] = ratio(float64(r.alloc)/(1<<20), n)
	m["go.gc_pause_ms"] = ratio(float64(r.gcPause)/1e6, n)
	m["service.submit_ms"] = median(submit)
	m["service.queue_wait_ms"] = median(qwait)
	m["service.run_ms"] = median(runT)
	m["service.rejected_share"] = ratio(rejected, n)
	m["service.cache_hit_share"] = ratio(float64(c["service_cache_hits_total"]), submitted)
	m["journal.records_per_job"] = ratio(float64(c["journal_records_total"]), submitted)
	m["journal.append_errors"] = float64(c["journal_append_errors_total"])
	m["service.result_not_ready_share"] = ratio(notReady, n)
	m["service.done_to_result_ms"] = median(d2r)
	m["service.stream_resume_share"] = ratio(resumed, n)
	m["trace.overhead_s"] = median(r.tracedWalls) - median(r.walls)
	m["trace.accounted_share"] = ratio(phases, lat)
	return m
}
