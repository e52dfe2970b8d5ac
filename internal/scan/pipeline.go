package scan

// The parallel pruner: one pipeline with two window sources. Stages:
//
//	source  — yields windows. The reader source fills pooled window
//	          slabs from an io.Reader on a goroutine of its own (a
//	          bounded ring), copying each window's carry into the
//	          slab's headroom; the resident source cuts windows of
//	          in-memory input as sub-slices, copying nothing
//	indexer — incremental structural indexing (index.StreamIndexer)
//	          plus planning: complete sibling subtrees group into
//	          delegated content ranges
//	workers — prune each range with the ordinary fragment machinery
//	          (ResetBytesAt over the window's backing bytes)
//	spine   — the calling goroutine: runs the serial pruner over each
//	          window in order, splicing fragment results in at their
//	          cut points, so output is byte-identical to serial
//
// The window-boundary invariant that makes the spine simple: a
// presented window always ends exactly at the end of a complete
// '<'-construct. Everything after the last complete construct — the
// trailing text run, an incomplete tag — is carried into the next
// window, so no token ever straddles a window and the spine pauses
// only at token boundaries (run's top-of-loop, or skipScan's, which
// returns errPause and resumes on the next window). Cross-window
// pruner state (element stack, DFA states, pending text run, deferred
// '>', skip name stack) simply stays in the pruner, which is re-pointed
// at each window with ResetBytesAt. Offsets are absolute in the
// window's backing bytes: the slab for the reader source, the whole
// input for the resident one — so resident gather output keeps
// zero-copy spans across windows.
//
// Memory: the reader source holds ring depth × window size of pooled
// slabs, plus the carry (bounded by MaxTokenSize — a construct or text
// run that cannot complete within the cap fails exactly like the
// serial scanner's sliding-buffer cap would). The resident source
// holds nothing beyond the input.

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"xmlproj/internal/dtd"
	"xmlproj/internal/index"
)

// DefaultPipelineWindow is the default window size.
const DefaultPipelineWindow = 1 << 20

// PipelineOptions configures the parallel pruner (both window sources).
type PipelineOptions struct {
	Options
	// Workers bounds fragment concurrency; 0 means GOMAXPROCS.
	Workers int
	// WindowSize is the number of fresh input bytes each window adds
	// (0 = DefaultPipelineWindow). On the reader source it is also the
	// pooled slab size, and peak pooled memory is RingDepth windows.
	WindowSize int
	// RingDepth is the number of windows in flight between the source
	// and the spine (0 = Workers+2, at least 4).
	RingDepth int
	// FragTarget overrides the per-fragment target size in bytes
	// (0 = auto from window size and worker count). Tests use tiny
	// values to force many fragments on small documents.
	FragTarget int
}

// PipelineDetail reports how a parallel prune was executed.
type PipelineDetail struct {
	// ReadNanos is time spent in src.Read (reader source only);
	// IndexNanos the incremental index+plan stage; PruneNanos the summed
	// fragment-worker time; EmitNanos the spine's in-order
	// splice-and-emit pass.
	ReadNanos, IndexNanos, PruneNanos, EmitNanos int64
	// Windows is the number of windows presented to the spine; Tasks
	// the number of delegated content ranges; Workers the resolved
	// worker count.
	Windows, Tasks, Workers int
	// PeakWindowBytes is the peak sum of window bytes simultaneously
	// resident between indexing and spine completion — bounded by
	// RingDepth × WindowSize (plus a MaxTokenSize-bounded carry).
	PeakWindowBytes int64
	// Fallback is true when the input was handed to the serial pruner
	// (a token cap too small for the parallel invariants).
	Fallback bool
}

// ErrWorkerPanic reports a panic inside one of the parallel pruner's
// goroutines (reader, indexer or fragment worker). The panic is
// contained and returned, wrapped, as the prune's error.
var ErrWorkerPanic = errors.New("scan: parallel pruner goroutine panicked")

// testHook, when set by tests, runs at the start of every indexed
// window ("index") and every fragment task ("fragment").
var testHook func(stage string)

// PrunePipelined prunes src with the reader window source, writing
// output byte-identical to Prune's to bw. Memory stays bounded by ring
// depth × window size regardless of document size.
func PrunePipelined(bw *bufio.Writer, src io.Reader, d *dtd.DTD, proj *dtd.Projection, opts PipelineOptions) (Stats, PipelineDetail, error) {
	pl := newPipeline(d, proj, opts)
	if pl.det.Fallback {
		st, err := Prune(bw, src, d, proj, opts.Options)
		return st, pl.det, err
	}
	return pl.run(pl.readFrom(src), parallelOut{bw: bw}, nil)
}

// PruneParallel prunes in-memory data with the resident window source,
// writing output byte-identical to Prune's to bw.
func PruneParallel(bw *bufio.Writer, data []byte, d *dtd.DTD, proj *dtd.Projection, opts PipelineOptions) (Stats, PipelineDetail, error) {
	return pruneResident(data, d, proj, opts, parallelOut{bw: bw})
}

// PruneParallelGather is PruneParallel with span-gather output: the
// spine records into sl and fragment gather lists fold in by list
// concatenation, so nothing is copied but synthesized escape bytes.
// Rendered output is byte-identical to PruneParallel's. Like every
// in-memory gather path, MaxTokenSize is enforced only by the indexer,
// not on the tiny-cap serial fallback.
func PruneParallelGather(sl *SpanList, data []byte, d *dtd.DTD, proj *dtd.Projection, opts PipelineOptions) (Stats, PipelineDetail, error) {
	return pruneResident(data, d, proj, opts, parallelOut{sl: sl})
}

func pruneResident(data []byte, d *dtd.DTD, proj *dtd.Projection, opts PipelineOptions, out parallelOut) (Stats, PipelineDetail, error) {
	pl := newPipeline(d, proj, opts)
	if pl.det.Fallback {
		st, err := out.serial(data, d, proj, opts.Options)
		return st, pl.det, err
	}
	return pl.run(&residentSource{data: data, win: pl.win}, out, data)
}

// parallelOut selects the spine's output target: exactly one of bw/sl
// is set.
type parallelOut struct {
	bw *bufio.Writer
	sl *SpanList
}

func (o parallelOut) install(pr *pruner, data []byte) {
	if o.sl != nil {
		o.sl.Reset(data)
		pr.useGather(o.sl)
	} else {
		pr.useStream(o.bw)
	}
}

// serial runs the serial pruner into the same target. The streaming
// fallback re-reads data through the scanner so the exact serial
// verdict — including MaxTokenSize enforcement — is reproduced; the
// gather fallback is PruneGather, which scans in place.
func (o parallelOut) serial(data []byte, d *dtd.DTD, proj *dtd.Projection, opts Options) (Stats, error) {
	if o.sl != nil {
		return PruneGather(o.sl, data, d, proj, opts)
	}
	return Prune(o.bw, bytes.NewReader(data), d, proj, opts)
}

// pipeWin is one source→indexer→spine window: the bytes data[lo:hi]
// (ending at a complete construct unless final or dead) and the
// delegated ranges within them, with offsets absolute in data. slab is
// the pooled buffer to recycle once the spine is done (reader source
// only; nil for resident windows and oversized carry assemblies).
type pipeWin struct {
	slab   []byte
	data   []byte
	lo, hi int
	tasks  []*fragTask
	final  bool  // last window: the spine runs modeNormal and end checks
	rerr   error // final window's terminal read status (io.EOF or error)
	dead   bool  // contains a construct the spine is guaranteed to error at
}

// windowSource feeds the indexer. next returns the next window: the
// previous window's unconsumed tail followed by fresh input, or ok
// false once the pipeline aborted. carry keeps pw.data[off:pw.hi] for
// the next window and returns its length; it runs before the window is
// presented, while its bytes are still valid.
type windowSource interface {
	next() (pw *pipeWin, ok bool)
	carry(pw *pipeWin, off int) int
}

// residentSource cuts windows of in-memory input as sub-slices: each
// window starts where the previous one's complete constructs ended and
// adds win fresh bytes. Nothing is read or copied.
type residentSource struct {
	data   []byte
	win    int
	lo, hi int
}

func (rs *residentSource) next() (*pipeWin, bool) {
	rs.hi += min(rs.win, len(rs.data)-rs.hi)
	pw := &pipeWin{data: rs.data, lo: rs.lo, hi: rs.hi}
	if rs.hi == len(rs.data) {
		pw.final, pw.rerr = true, io.EOF
	}
	return pw, true
}

func (rs *residentSource) carry(pw *pipeWin, off int) int {
	rs.lo = off
	return rs.hi - off
}

// rawWin is one reader→indexer hand-off: a pooled slab whose payload
// region slab[headroom:headroom+n] holds fresh input bytes. err is the
// terminal read status (io.EOF or a real error) — the reader stops
// after sending it.
type rawWin struct {
	slab []byte
	n    int
	err  error
}

// readerSource assembles each window in a slab: the carry copied into
// the slab's leading headroom, followed by the payload the reader
// goroutine filled.
type readerSource struct {
	pl       *pipeline
	raw      <-chan rawWin
	headroom int
	tail     []byte // carry into the next window
}

func (rs *readerSource) next() (*pipeWin, bool) {
	var rw rawWin
	ok := false
	select {
	case rw, ok = <-rs.raw:
	case <-rs.pl.abort:
	}
	if !ok {
		return nil, false
	}
	pw := &pipeWin{final: rw.err != nil, rerr: rw.err}
	if len(rs.tail) <= rs.headroom {
		start := rs.headroom - len(rs.tail)
		copy(rw.slab[start:rs.headroom], rs.tail)
		pw.slab, pw.data = rw.slab, rw.slab[start:rs.headroom+rw.n]
	} else {
		// Oversized carry (a construct still incomplete after a whole
		// window): assemble privately and recycle the slab now. Bounded
		// by the indexer's MaxTokenSize check.
		buf := make([]byte, 0, len(rs.tail)+rw.n)
		buf = append(buf, rs.tail...)
		pw.data = append(buf, rw.slab[rs.headroom:rs.headroom+rw.n]...)
		if !rs.pl.recycle(rw.slab) {
			return nil, false
		}
	}
	pw.hi = len(pw.data)
	return pw, true
}

func (rs *readerSource) carry(pw *pipeWin, off int) int {
	rs.tail = append(rs.tail[:0], pw.data[off:pw.hi]...)
	return len(rs.tail)
}

// slabPool recycles default-size reader slabs across prunes.
var slabPool = sync.Pool{New: func() any { return new([]byte) }}

// pipeline is the shared state of one parallel prune.
type pipeline struct {
	d    *dtd.DTD
	proj *dtd.Projection
	opts Options // fragment options

	workers, win, ring, target, minFrag, maxTok int

	abort chan struct{}
	// free holds the reader source's recycled slabs, sized to the ring
	// so every slab fits (nil for the resident source).
	free chan []byte
	// taskCh's buffer lets the indexer run a few tasks per worker ahead
	// of the pool; planCh's holds the ring's windows in flight.
	taskCh chan *fragTask
	planCh chan *pipeWin
	wg     sync.WaitGroup

	// Cross-goroutine stage counters.
	readNanos, idxNanos, pruneNanos atomic.Int64
	windows, tasks                  atomic.Int64
	resident, peak                  atomic.Int64

	panicOnce sync.Once
	panicErr  error

	det PipelineDetail
}

func newPipeline(d *dtd.DTD, proj *dtd.Projection, opts PipelineOptions) *pipeline {
	pl := &pipeline{d: d, proj: proj, opts: opts.Options}
	pl.workers = opts.Workers
	if pl.workers <= 0 {
		pl.workers = runtime.GOMAXPROCS(0)
	}
	pl.det.Workers = pl.workers
	pl.maxTok = opts.MaxTokenSize
	if pl.maxTok <= 0 {
		pl.maxTok = DefaultMaxTokenSize
	}
	// A cap this tight interacts with the serial scanner's buffer growth
	// in ways the per-window bound does not reproduce; the serial pruner
	// gives the exact verdict.
	pl.det.Fallback = pl.maxTok < 2*windowFlushSize
	pl.win = opts.WindowSize
	if pl.win <= 0 {
		pl.win = DefaultPipelineWindow
	}
	pl.ring = opts.RingDepth
	if pl.ring <= 0 {
		pl.ring = max(pl.workers+2, 4)
	}
	pl.ring = max(pl.ring, 2)
	pl.target = opts.FragTarget
	if pl.target <= 0 {
		const minTarget, maxTarget = 16 << 10, 4 << 20
		pl.target = min(max(pl.win/(2*pl.workers), minTarget), maxTarget)
	}
	pl.minFrag = max(pl.target/8, 1)
	pl.abort = make(chan struct{})
	pl.taskCh = make(chan *fragTask, 4*pl.workers)
	pl.planCh = make(chan *pipeWin, pl.ring)
	return pl
}

// readFrom starts the reader stage over src and returns its window
// source. The slab's leading headroom receives the previous window's
// carry, so the common case (small trailing text run) assembles in
// place with one small copy and the documented bound — ring × window —
// counts everything.
func (pl *pipeline) readFrom(src io.Reader) windowSource {
	win := max(pl.win, 256)
	headroom := min(win/4, 64<<10)
	pl.free = make(chan []byte, pl.ring)
	for i := 0; i < pl.ring; i++ {
		var slab []byte
		if win == DefaultPipelineWindow {
			slab = *slabPool.Get().(*[]byte)
		}
		if len(slab) != win {
			slab = make([]byte, win)
		}
		pl.free <- slab
	}
	raw := make(chan rawWin)
	pl.wg.Add(1)
	go pl.read(src, raw, headroom, win)
	return &readerSource{pl: pl, raw: raw, headroom: headroom}
}

// read fills each slab's payload region completely (or to the terminal
// error) and hands it over. The (0, nil) retry bound mirrors the
// scanner's own fill.
func (pl *pipeline) read(src io.Reader, raw chan<- rawWin, headroom, win int) {
	defer pl.wg.Done()
	defer close(raw)
	defer pl.contain("reader")
	zero := 0
	for {
		var slab []byte
		select {
		case slab = <-pl.free:
		case <-pl.abort:
			return
		}
		n := 0
		var rerr error
		t0 := time.Now()
		for n < win-headroom {
			m, err := src.Read(slab[headroom+n : win])
			n += m
			if err != nil {
				rerr = err
				break
			}
			if m == 0 {
				zero++
				if zero >= 100 {
					rerr = io.ErrNoProgress
					break
				}
			} else {
				zero = 0
			}
		}
		pl.readNanos.Add(time.Since(t0).Nanoseconds())
		select {
		case raw <- rawWin{slab: slab, n: n, err: rerr}:
		case <-pl.abort:
			return
		}
		if rerr != nil {
			return
		}
	}
}

// recycle returns a slab to the reader; false when the pipeline
// aborted. Resident windows have no slab.
func (pl *pipeline) recycle(slab []byte) bool {
	if slab == nil {
		return true
	}
	select {
	case pl.free <- slab:
		return true
	case <-pl.abort:
		return false
	}
}

// contain turns a panic in a pipeline goroutine into the prune's error
// instead of a crashed process. It must be deferred directly.
func (pl *pipeline) contain(stage string) {
	if r := recover(); r != nil {
		pl.fail(stage, r)
	}
}

func (pl *pipeline) fail(stage string, r any) error {
	pl.panicOnce.Do(func() { pl.panicErr = fmt.Errorf("%w (%s): %v", ErrWorkerPanic, stage, r) })
	return pl.panicErr
}

// run drives one prune over src: the indexer and the fragment workers
// on their own goroutines, the spine on the caller's. data is the
// resident input the spine's gather output refers to (nil for the
// reader source).
func (pl *pipeline) run(src windowSource, out parallelOut, data []byte) (Stats, PipelineDetail, error) {
	pl.wg.Add(1 + pl.workers)
	go pl.index(src)
	for i := 0; i < pl.workers; i++ {
		go pl.work()
	}

	// Raw-copy windows must not span the per-window scanner re-point or
	// a splice jump, so they stay off on the spine (fragments still use
	// them; their output is byte-identical either way).
	spineOpts := pl.opts
	spineOpts.RawCopy = false
	pr := prunerPool.Get().(*pruner)
	pr.s.ResetBytes(nil)
	pr.prep(pl.d, pl.proj, spineOpts)
	out.install(pr, data)
	pr.mode = modePipe

	var err error
	var emitNanos int64
	finished := false
	for pw := range pl.planCh {
		pr.s.ResetBytesAt(pw.data, pw.lo, pw.hi)
		if pw.final {
			pr.mode = modeNormal
			if pw.rerr != nil {
				pr.s.rerr = pw.rerr
			}
		}
		var sp *spliceSet
		if len(pw.tasks) > 0 {
			sp = &spliceSet{tasks: pw.tasks}
		}
		pr.sp = sp
		t0 := time.Now()
		werr := pr.runWindow()
		emitNanos += time.Since(t0).Nanoseconds()
		if werr == errPause {
			werr = nil
		}
		if sp != nil {
			for _, t := range pw.tasks[:sp.i] {
				if t.res.sl != nil {
					putSpanList(t.res.sl)
					t.res.sl = nil
				}
			}
		}
		pl.resident.Add(-int64(pw.hi - pw.lo))
		if pw.slab != nil {
			select {
			case pl.free <- pw.slab:
			default:
			}
		}
		if werr == nil {
			// Desync guards: a dead window must have errored, and every
			// delegated range must have been reached. Both are proven
			// unreachable by the indexer's ground-truth invariant; the
			// guards turn a would-be silent corruption into an error.
			if pw.dead {
				werr = fmt.Errorf("scan: parallel prune desynchronised (malformed window passed)")
			} else if sp != nil && sp.i < len(pw.tasks) {
				werr = fmt.Errorf("scan: parallel prune desynchronised (%d unapplied ranges)", len(pw.tasks)-sp.i)
			}
		}
		if werr != nil {
			err = werr
			break
		}
		if pw.final {
			finished = true
			break
		}
	}
	close(pl.abort)
	pl.wg.Wait()
	if pl.panicErr != nil {
		err = pl.panicErr
	} else if err == nil && !finished {
		err = fmt.Errorf("scan: parallel prune ended without a final window")
	}
	st := pr.st
	pr.release()
	prunerPool.Put(pr)
	pl.poolSlabs()

	det := pl.det
	det.ReadNanos = pl.readNanos.Load()
	det.IndexNanos = pl.idxNanos.Load()
	det.PruneNanos = pl.pruneNanos.Load()
	det.EmitNanos = emitNanos
	det.Windows = int(pl.windows.Load())
	det.Tasks = int(pl.tasks.Load())
	det.PeakWindowBytes = pl.peak.Load()
	return st, det, err
}

// poolSlabs hands the reader source's default-size slabs back to
// slabPool once every goroutine has stopped.
func (pl *pipeline) poolSlabs() {
	if pl.free == nil {
		return
	}
	put := func(slab []byte) {
		if len(slab) == DefaultPipelineWindow {
			slabPool.Put(&slab)
		}
	}
	for pw := range pl.planCh {
		put(pw.slab)
	}
	for {
		select {
		case slab := <-pl.free:
			put(slab)
		default:
			return
		}
	}
}

// index is the indexer goroutine: index each window, plan delegated
// ranges, dispatch them to the workers, then present the window to the
// spine. Runs until the terminal window (final, dead, or token-cap
// failure).
func (pl *pipeline) index(src windowSource) {
	defer pl.wg.Done()
	defer close(pl.taskCh)
	defer close(pl.planCh)
	defer pl.contain("indexer")
	si := index.StreamIndexer{MaxTokenSize: pl.maxTok, Lookup: pl.proj.Syms.Lookup}
	plan := pipePlanner{p: pl.proj, target: pl.target, minFrag: pl.minFrag}
	for {
		pw, ok := src.next()
		if !ok {
			return
		}
		if testHook != nil {
			testHook("index")
		}
		t0 := time.Now()
		w := si.Window(pw.data[pw.lo:pw.hi])
		carried := 0
		switch {
		case w.Err != nil:
			// Token cap exceeded: surface the serial scanner's verdict
			// through the final-window machinery (the spine hits the
			// preset read error at the window's end).
			pw.final = true
			pw.rerr = fmt.Errorf("%w: %v", ErrTokenTooLong, w.Err)
		case w.Dead:
			// The window contains a construct the serial scanner is
			// guaranteed to reject: stop delegating and let the spine
			// reproduce the exact error (modePipe — it errors before the
			// window ends).
			pw.final = false
			pw.dead = true
		default:
			end := pw.lo + w.Consumed
			if !pw.final {
				// Carry the tail (trailing text + incomplete construct)
				// before the spine can recycle the slab.
				carried = src.carry(pw, end)
				pw.hi = end
			} else if gap := pw.hi - end; gap > pl.maxTok && pw.rerr == io.EOF {
				pw.rerr = fmt.Errorf("%w (%d-byte text run)", ErrTokenTooLong, gap)
			}
			pw.tasks = plan.window(w.Entries, pw.lo)
		}
		pl.idxNanos.Add(time.Since(t0).Nanoseconds())
		if !pw.final && !pw.dead && pw.hi == pw.lo {
			// Nothing completed in this window (giant construct in
			// progress): recycle the slab and keep accumulating.
			if !pl.recycle(pw.slab) {
				return
			}
		} else if !pl.present(pw) {
			return
		}
		if pw.final || pw.dead {
			return
		}
		if carried > pl.maxTok {
			// The carry can never complete within the cap; fail like the
			// serial scanner's sliding-buffer cap.
			pl.present(&pipeWin{
				final: true,
				rerr:  fmt.Errorf("%w (%d bytes)", ErrTokenTooLong, pl.maxTok),
			})
			return
		}
	}
}

// present dispatches a window's tasks to the workers and hands the
// window to the spine; false when the pipeline aborted.
func (pl *pipeline) present(pw *pipeWin) bool {
	for _, t := range pw.tasks {
		t.data = pw.data
		t.ready = make(chan struct{})
		select {
		case pl.taskCh <- t:
		case <-pl.abort:
			return false
		}
	}
	pl.windows.Add(1)
	pl.tasks.Add(int64(len(pw.tasks)))
	atomicMax(&pl.peak, pl.resident.Add(int64(pw.hi-pw.lo)))
	select {
	case pl.planCh <- pw:
		return true
	case <-pl.abort:
		return false
	}
}

func atomicMax(p *atomic.Int64, v int64) {
	for {
		cur := p.Load()
		if v <= cur || p.CompareAndSwap(cur, v) {
			return
		}
	}
}

// work is one fragment worker.
func (pl *pipeline) work() {
	defer pl.wg.Done()
	for {
		select {
		case t, ok := <-pl.taskCh:
			if !ok {
				return
			}
			t0 := time.Now()
			pl.runTask(t)
			pl.pruneNanos.Add(time.Since(t0).Nanoseconds())
		case <-pl.abort:
			return
		}
	}
}

// runTask prunes one delegated range and signals the spine; a panic
// becomes the range's error, which the spine returns at the splice.
func (pl *pipeline) runTask(t *fragTask) {
	defer close(t.ready)
	defer func() {
		if r := recover(); r != nil {
			t.res = fragResult{err: pl.fail("fragment worker", r)}
		}
	}()
	if testHook != nil {
		testHook("fragment")
	}
	runTask(t.data, pl.d, pl.proj, pl.opts, t)
}

// runTask prunes one range. Kept ranges record their output into a
// pooled span-gather list with absolute offsets (ResetBytesAt), so the
// spine's splice is list concatenation instead of a buffer copy; skip
// ranges never emit and run against the discard emitter — there is no
// writer here at all, so nothing can flush into a nil destination.
func runTask(data []byte, d *dtd.DTD, proj *dtd.Projection, opts Options, t *fragTask) {
	pr := prunerPool.Get().(*pruner)
	pr.s.ResetBytesAt(data, t.lo, t.hi)
	pr.prep(d, proj, opts)
	if t.skip {
		pr.useDiscard()
		pr.mode = modeSkipRange
		t.res.err = pr.skipScan()
		t.res.st = pr.st
	} else {
		sl := getSpanList(data)
		pr.useGather(sl)
		t.res.err = pr.runFragment(t.ctxSym, t.ctxBase)
		t.res.st = pr.st
		t.res.events = append([]int32(nil), pr.events...)
		t.res.sl = sl
	}
	pr.release()
	prunerPool.Put(pr)
}

// runWindow processes one window: resume a skip scan paused at the
// previous window boundary, then run the spine loop. Returns errPause
// when a non-final window ends inside a skipped subtree.
func (pr *pruner) runWindow() error {
	if len(pr.skipOffs) > 0 {
		if err := pr.skipScan(); err != nil {
			return err
		}
	}
	return pr.run()
}

// pipeFrame is one open element on the planner's stack: the element's
// symbol and whether it (and every ancestor) is kept — which decides
// whether ranges under it delegate as kept fragments or skip fragments.
type pipeFrame struct {
	sym  int32
	kept bool
}

// pipePlanner cuts each window's entries into delegated content
// ranges: complete sibling subtrees group to roughly target bytes,
// dominant subtrees (more than twice the target) decompose at the next
// level so a handful of large children (an XMark root has only six)
// still spread across workers, comments and text ride inside whichever
// range covers them, and everything at document level stays on the
// spine. The stack persists across windows — a Start without its End
// in this window pushes a frame the matching End pops windows later.
type pipePlanner struct {
	p       *dtd.Projection
	target  int
	minFrag int
	stack   []pipeFrame
	match   []int
	mstk    []int
}

// window plans one window's entries, whose offsets are relative to the
// window start; base shifts the tasks to offsets in the window's
// backing bytes.
func (pl *pipePlanner) window(ents []index.Entry, base int) []*fragTask {
	if len(ents) == 0 {
		return nil
	}
	// Pair in-window Start entries with their End entries; unmatched
	// Starts straddle the window end, unmatched Ends close frames from
	// earlier windows.
	match := pl.match[:0]
	for range ents {
		match = append(match, -1)
	}
	pl.match = match
	stk := pl.mstk[:0]
	for i := range ents {
		switch ents[i].Kind {
		case index.Start:
			stk = append(stk, i)
		case index.End:
			if len(stk) > 0 {
				j := stk[len(stk)-1]
				stk = stk[:len(stk)-1]
				match[j] = i
			}
		}
	}
	pl.mstk = stk[:0]

	var tasks []*fragTask
	groupLo, groupHi, acc := -1, -1, 0
	closeAt := func(off int) {
		if groupLo >= 0 && off-groupLo >= pl.minFrag {
			d := len(pl.stack)
			top := pl.stack[d-1]
			tasks = append(tasks, &fragTask{
				lo: base + groupLo, hi: base + off,
				skip:    !top.kept,
				ctxSym:  top.sym,
				ctxBase: d,
			})
		}
		groupLo, groupHi, acc = -1, -1, 0
	}
	push := func(e *index.Entry) {
		parentKept := true
		if n := len(pl.stack); n > 0 {
			parentKept = pl.stack[n-1].kept
		}
		kept := parentKept && e.Sym >= 0 && pl.p.Flags(e.Sym)&dtd.KeepElem != 0
		pl.stack = append(pl.stack, pipeFrame{sym: e.Sym, kept: kept})
	}

	i := 0
	for i < len(ents) {
		e := &ents[i]
		switch e.Kind {
		case index.Start:
			m := match[i]
			if m < 0 {
				// Straddles the window end: the spine processes the start
				// tag; the subtree's content decomposes in later windows.
				closeAt(e.Off)
				push(e)
				i++
				continue
			}
			if len(pl.stack) == 0 {
				// Document level: the spine handles root (and any stray
				// sibling) tags; content decomposes one level down.
				push(e)
				i++
				continue
			}
			size := ents[m].End - e.Off
			if acc >= pl.target {
				closeAt(e.Off)
			}
			top := pl.stack[len(pl.stack)-1]
			if size > 2*pl.target && (!top.kept || e.Sym >= 0) {
				// Dominant complete subtree: spine takes its tags, its
				// children group at the next level.
				closeAt(e.Off)
				push(e)
				i++
				continue
			}
			if groupLo < 0 {
				groupLo = e.Off
			}
			acc += size
			groupHi = ents[m].End
			i = m + 1
		case index.StartEmpty:
			if len(pl.stack) == 0 {
				i++
				continue
			}
			if acc >= pl.target {
				closeAt(e.Off)
			}
			if groupLo < 0 {
				groupLo = e.Off
			}
			acc += e.End - e.Off
			groupHi = e.End
			i++
		case index.End:
			// Closes the current context: the group ends before the end
			// tag, which the spine processes.
			closeAt(e.Off)
			if len(pl.stack) > 0 {
				pl.stack = pl.stack[:len(pl.stack)-1]
			}
			i++
		default:
			// Comment/PI/CDATA: rides inside an open group's span (group
			// ranges are contiguous) or falls to the spine.
			i++
		}
	}
	if groupLo >= 0 {
		// Window ends with an open group: cut at the end of the last
		// grouped subtree; trailing non-element entries go to the spine.
		closeAt(groupHi)
	}
	return tasks
}
