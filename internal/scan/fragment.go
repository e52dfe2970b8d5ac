package scan

// Parallel-prune fragments and splices. A parallel prune (see
// pipeline.go) cuts the document's content into byte ranges at element
// tag boundaries; worker pruners process each range concurrently, and
// the serial "spine" pruner — running over the document window by
// window — splices each range's pre-computed result in at its cut
// point instead of re-scanning the bytes. The cut rule (a range starts
// and ends at an element tag, never inside text, at a comment, or
// mid-construct) guarantees logical text runs never span a cut: the
// serial pruner flushes a pending run exactly at element tags, so a
// fragment flushing at its EOF reproduces the flush the spine would
// have done at the tag that follows the range.

import (
	"fmt"
)

// fragTask is one delegated content range data[lo:hi].
type fragTask struct {
	data   []byte // the window's backing bytes
	lo, hi int
	// skip marks a range inside a discarded subtree: processed for
	// well-formedness and stats only, with no output and no events.
	skip bool
	// ctxSym and ctxBase describe a kept range's context element (the
	// parent whose children the range holds) and its stack depth.
	ctxSym  int32
	ctxBase int

	// ready is closed by the worker once res is populated; the spine
	// blocks on it before splicing, so the two overlap.
	ready chan struct{}

	res fragResult
}

// fragResult is what a worker produced for one range. Output is a
// span-gather list over the window's backing bytes (workers scan with
// absolute offsets via ResetBytesAt), so the spine folds it in by
// concatenation — or, on the streaming path, with a single copy out of
// the input.
type fragResult struct {
	st     Stats
	events []int32
	sl     *SpanList
	err    error
}

// spliceSet is the spine's ordered view of the delegated ranges.
type spliceSet struct {
	tasks []*fragTask
	i     int
}

// at reports whether pos is the next splice point.
func (sp *spliceSet) at(pos int) bool {
	return sp.i < len(sp.tasks) && sp.tasks[sp.i].lo == pos
}

// applySplice folds the next delegated range's result into the spine at
// its cut point: flush the pending text run (the serial pruner would
// flush it at the element tag the range starts with), replay the
// fragment's context-level events through the live content-model state,
// write the fragment's output, fold its stats, surface its error, and
// jump the scanner past the range. Event replay precedes the fragment's
// own error because every recorded event happened earlier in document
// order than the point where the fragment stopped.
func (pr *pruner) applySplice() error {
	t := pr.sp.tasks[pr.sp.i]
	pr.sp.i++
	<-t.ready
	if err := pr.flushText(); err != nil {
		return err
	}
	res := &t.res
	if pr.opts.Validate {
		top := &pr.stack[len(pr.stack)-1]
		for _, ev := range res.events {
			if ev == eventText {
				next := top.aut.NextText(top.state)
				if next < 0 {
					return fmt.Errorf("text content not allowed in %s", pr.p.Syms.Info(top.sym).Name)
				}
				top.state = next
			} else {
				next := top.aut.Next(top.state, ev)
				if next < 0 {
					return fmt.Errorf("element %s not allowed here in content of %s",
						pr.p.Syms.Info(ev).Name, pr.p.Syms.Info(top.sym).Name)
				}
				top.state = next
			}
		}
	}
	if res.sl != nil && res.sl.Len() > 0 {
		pr.closeOpen()
		pr.em.splice(res.sl)
	}
	pr.foldStats(&res.st)
	if res.err != nil {
		return res.err
	}
	pr.s.pos = t.hi
	return nil
}

// applySkipSplice is applySplice for a range inside a discarded
// subtree: stats only — no output, no events, no validation.
func (pr *pruner) applySkipSplice() error {
	t := pr.sp.tasks[pr.sp.i]
	pr.sp.i++
	<-t.ready
	pr.foldStats(&t.res.st)
	if t.res.err != nil {
		return t.res.err
	}
	pr.s.pos = t.hi
	return nil
}

func (pr *pruner) foldStats(st *Stats) {
	pr.st.ElementsIn += st.ElementsIn
	pr.st.ElementsOut += st.ElementsOut
	pr.st.TextIn += st.TextIn
	pr.st.TextOut += st.TextOut
	pr.st.ElementsSkipped += st.ElementsSkipped
	pr.st.TextSkipped += st.TextSkipped
	if st.MaxDepth > pr.st.MaxDepth {
		pr.st.MaxDepth = st.MaxDepth
	}
}

// runFragment prunes one kept content range. The scanner is already
// reset over the range's bytes; the stack is seeded with ctxBase frames
// (only the top one's symbol matters — ancestor end tags are outside
// the range) so stack depth equals real document depth and MaxDepth
// folds by max.
func (pr *pruner) runFragment(ctxSym int32, ctxBase int) error {
	pr.mode = modeFragment
	pr.ctxBase = ctxBase
	pr.stack = pr.stack[:0]
	for i := 0; i < ctxBase; i++ {
		pr.stack = append(pr.stack, frame{sym: -1})
	}
	pr.stack[ctxBase-1] = frame{sym: ctxSym}
	pr.sawRoot = true
	return pr.run()
}
