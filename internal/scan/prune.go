package scan

import (
	"bufio"
	"fmt"
	"io"
	"sync"

	"xmlproj/internal/dtd"
)

// Options configures a scanner-based prune.
type Options struct {
	// Validate checks content models, attribute declarations and the
	// root element while pruning.
	Validate bool
	// RawCopy enables verbatim passthrough windows for subtrees whose
	// reachable closure is inside π. Safe to combine with Validate:
	// while a subtree rides a window the scanner keeps feeding element
	// and text symbols through the dense content-model DFAs and checking
	// attributes, so validation continues without leaving the verbatim
	// path.
	RawCopy bool
	// MaxTokenSize bounds the scanner's sliding buffer: a single token
	// (one tag, one text chunk, one attribute value) larger than this
	// fails with scan.ErrTokenTooLong. Zero means DefaultMaxTokenSize.
	MaxTokenSize int
}

// Stats mirrors the streaming pruner's counters (the prune package owns
// the documented contract; BytesOut is counted by the caller's writer).
type Stats struct {
	ElementsIn, ElementsOut      int64
	TextIn, TextOut              int64
	ElementsSkipped, TextSkipped int64
	MaxDepth                     int
}

// prunerPool recycles pruner state — the scanner's sliding buffer, the
// element stack, text and tag scratch — across prunes, so a batch of
// documents pays the allocation cost once, not per document.
var prunerPool = sync.Pool{New: func() any { return &pruner{s: NewScanner(nil)} }}

// Prune runs the byte-level pruner: src is tokenized in place, names
// resolve through the DTD symbol table, and the compiled projection
// answers keep/skip per element with an array lookup. Output written to
// bw is byte-identical to the encoding/xml-based pruner's. Scanner and
// pruner state come from a pool and are returned on completion.
func Prune(bw *bufio.Writer, src io.Reader, d *dtd.DTD, proj *dtd.Projection, opts Options) (Stats, error) {
	pr := prunerPool.Get().(*pruner)
	pr.s.Reset(src)
	pr.prep(d, proj, opts)
	pr.useStream(bw)
	err := pr.run()
	st := pr.st
	pr.release()
	prunerPool.Put(pr)
	return st, err
}

// PruneBytes is Prune over input that is already fully in memory: the
// scanner aliases data (ResetBytes), so nothing is read or copied on
// the input side and raw-copy windows stream straight out of data.
// MaxTokenSize is not enforced — the cap exists to bound the streaming
// scanner's buffer growth, and an in-memory input has no buffer to
// grow; bound such inputs by size before handing them over.
func PruneBytes(bw *bufio.Writer, data []byte, d *dtd.DTD, proj *dtd.Projection, opts Options) (Stats, error) {
	pr := prunerPool.Get().(*pruner)
	pr.s.ResetBytes(data)
	pr.prep(d, proj, opts)
	pr.useStream(bw)
	err := pr.run()
	st := pr.st
	pr.release()
	prunerPool.Put(pr)
	return st, err
}

// PruneGather prunes in-memory input into sl: output is recorded as a
// gather list of input spans plus a small escape buffer of synthesized
// bytes, copying nothing. The rendered output (SpanList.WriteTo,
// AppendTo, Bytes) is byte-identical to Prune's. sl is Reset over data
// first. Like PruneBytes, MaxTokenSize is not enforced.
func PruneGather(sl *SpanList, data []byte, d *dtd.DTD, proj *dtd.Projection, opts Options) (Stats, error) {
	sl.Reset(data)
	pr := prunerPool.Get().(*pruner)
	pr.s.ResetBytes(data)
	pr.prep(d, proj, opts)
	pr.useGather(sl)
	err := pr.run()
	st := pr.st
	pr.release()
	prunerPool.Put(pr)
	return st, err
}

// prep prepares pooled state for a new input. The caller has already
// pointed the scanner at the input (Reset / ResetBytes / ResetBytesAt)
// and must install an output target with useStream, useGather or
// useDiscard before run.
func (pr *pruner) prep(d *dtd.DTD, proj *dtd.Projection, opts Options) {
	pr.s.SetMaxTokenSize(opts.MaxTokenSize)
	pr.d, pr.p, pr.opts = d, proj, opts
	pr.st = Stats{}
	pr.stack = pr.stack[:0]
	pr.open, pr.sawRoot, pr.runPending = false, false, false
	pr.textBuf = pr.textBuf[:0]
	pr.win, pr.winDepth, pr.openInWin, pr.openRel = false, 0, false, 0
	pr.skipBuf = pr.skipBuf[:0]
	pr.skipOffs = pr.skipOffs[:0]
	pr.skipPending = false
	pr.mode, pr.ctxBase = modeNormal, 0
	pr.events = pr.events[:0]
	pr.sp = nil
}

// useStream targets the classic buffered-copy output path. The
// streamEmitter lives inside the pooled pruner, so installing it
// allocates nothing.
func (pr *pruner) useStream(bw *bufio.Writer) {
	pr.se.bw = bw
	pr.em = &pr.se
}

// useGather targets a span-gather list (in-memory inputs only: gather
// spans are absolute input offsets, sound only in ResetBytes mode).
func (pr *pruner) useGather(sl *SpanList) { pr.em = sl }

// useDiscard wires a non-emitting role (skip fragments).
func (pr *pruner) useDiscard() { pr.em = nopEmitter{} }

// release drops references to per-prune inputs so the pool does not pin
// the caller's reader, writer, DTD or projection. Scratch buffers keep
// their capacity — that is the point of pooling.
func (pr *pruner) release() {
	for i := range pr.stack {
		pr.stack[i] = frame{}
	}
	pr.stack = pr.stack[:0]
	pr.s.Reset(nil)
	pr.d, pr.p = nil, nil
	pr.em, pr.se.bw = nil, nil
}

// windowFlushSize bounds how many verbatim bytes a raw-copy window may
// hold before being streamed out, keeping memory independent of the
// copied subtree's size.
const windowFlushSize = 32 << 10

type frame struct {
	sym    int32
	prefix string        // interned; "" for unprefixed tags
	state  int32         // dense content-model DFA state (when validating)
	aut    *dtd.DenseDFA // the element's dense automaton
}

type pruner struct {
	s    *Scanner
	d    *dtd.DTD
	p    *dtd.Projection
	opts Options
	st   Stats

	// em is the output target; se backs it on the streaming path so
	// installing the emitter never allocates.
	em emitter
	se streamEmitter

	stack   []frame
	open    bool // last start tag's '>' not yet written (enables <e/>)
	sawRoot bool

	// Logical text run: runPending is set when a non-whitespace chunk
	// joined the current run; textBuf holds the decoded bytes that are
	// not already flowing through the raw-copy window.
	runPending bool
	textBuf    []byte

	// Raw-copy window: while win is set, the scanner's mark pins the
	// start of a span of input bytes already known to equal the
	// canonical output; non-verbatim tokens flush the span and restart
	// it. openInWin marks a provisionally-copied '>' (at mark-relative
	// openRel) that must be withheld if the element turns out to
	// self-close in the output.
	win       bool
	winDepth  int // stack depth of the raw root; window closes below it
	openInWin bool
	openRel   int

	tagBuf   []byte // canonical rendering of the current start tag
	attrVal  []byte // decoded value of a kept element's attribute
	seen     []bool // declared-attribute tracking for #REQUIRED checks
	prefixes map[string]string

	// skip-scan name stack: full end-tag names to match, stored in one
	// growable buffer to stay allocation-free in steady state.
	skipBuf  []byte
	skipOffs []int

	// Parallel-prune state. mode selects the pruner's role: modeNormal is
	// the plain serial pruner (also the spine of a parallel prune over
	// its final window); modeFragment prunes one content range of a kept context
	// element, recording child-level symbols in events instead of walking
	// the context element's content-model DFA (the spine replays them at
	// the splice point, in document order); modePipe is the spine of a
	// parallel prune over one non-final window — end of input means
	// "window exhausted, more to come", so run returns nil with all
	// cross-window state (stack, DFA states, pending text run, open '>')
	// left in place for the next window; modeSkipRange runs skipScan over
	// one delegated range inside a discarded subtree. ctxBase is the
	// seeded stack depth a fragment starts and must end at.
	mode    uint8
	ctxBase int
	events  []int32
	sp      *spliceSet

	// skipPending carries skipScan's pending-text-run flag across a
	// modePipe window pause (errPause), so a logical run straddling
	// windows inside a skipped subtree still counts once.
	skipPending bool
}

const (
	modeNormal uint8 = iota
	modeFragment
	modePipe
	modeSkipRange
)

// errPause is skipScan's internal signal that a modePipe window ended
// mid-subtree: not an error — the pipelined spine resumes the skip scan
// at the start of the next window (pr.skipOffs is non-empty).
var errPause = fmt.Errorf("scan: window pause")

// eventText marks a logical text run in a fragment's event stream; other
// values are child element symbols.
const eventText int32 = -1

func (pr *pruner) run() error {
	s := pr.s
	for {
		if pr.sp != nil && pr.sp.at(s.pos) {
			if err := pr.applySplice(); err != nil {
				return err
			}
			continue
		}
		var tokRel int
		if pr.win {
			tokRel = s.pos - s.mark
		} else {
			s.setMark()
		}
		b, ok := s.getc()
		if !ok {
			if !s.atEOF() {
				return s.rerr
			}
			break
		}
		if b != '<' {
			s.ungetc()
			if err := pr.chunk(tokRel, false); err != nil {
				return err
			}
		} else {
			b2, ok := s.getc()
			if !ok {
				return s.readErr()
			}
			switch b2 {
			case '/':
				if err := pr.endTag(tokRel); err != nil {
					return err
				}
			case '?':
				if pr.win {
					pr.flushWindowUpTo(tokRel)
				}
				if err := s.skipPI(); err != nil {
					return err
				}
				pr.winRestart()
			case '!':
				b3, ok := s.getc()
				if !ok {
					return s.readErr()
				}
				switch b3 {
				case '-':
					b4, ok := s.getc()
					if !ok {
						return s.readErr()
					}
					if b4 != '-' {
						return errSyntax("invalid sequence <!- not part of <!--")
					}
					if pr.win {
						pr.flushWindowUpTo(tokRel)
					}
					if err := s.skipComment(); err != nil {
						return err
					}
					pr.winRestart()
				case '[':
					if err := s.expectCDATA(); err != nil {
						return err
					}
					if err := pr.chunk(tokRel, true); err != nil {
						return err
					}
				default:
					// Directive. The first byte after <! is accumulated
					// uninterpreted, as in encoding/xml.
					if pr.win {
						pr.flushWindowUpTo(tokRel)
					}
					if err := s.skipDirective(); err != nil {
						return err
					}
					pr.winRestart()
				}
			default:
				s.ungetc()
				if err := pr.startTag(tokRel); err != nil {
					return err
				}
			}
		}
		if !pr.win {
			s.clearMark()
		}
	}
	if pr.mode == modePipe {
		// End of a non-final pipelined window. The indexer guarantees the
		// window ends exactly after a complete construct, so the loop
		// paused at a token boundary; everything else (pending text run,
		// open '>', element stack) continues into the next window.
		return nil
	}
	if pr.mode == modeFragment {
		// The cut rule guarantees the byte after this range is an element
		// tag, where the serial pruner would flush the pending text run.
		if err := pr.flushText(); err != nil {
			return err
		}
		if pr.win {
			pr.closeWindow()
		}
		if len(pr.stack) != pr.ctxBase {
			top := pr.stack[len(pr.stack)-1]
			return fmt.Errorf("unterminated element %s", pr.p.Syms.Info(top.sym).Name)
		}
		return nil
	}
	if len(pr.stack) != 0 {
		top := pr.stack[len(pr.stack)-1]
		return fmt.Errorf("unterminated element %s", pr.p.Syms.Info(top.sym).Name)
	}
	if !pr.sawRoot {
		return fmt.Errorf("no root element in input")
	}
	return nil
}

// chunk reads one character-data chunk (plain text after the current
// position, or a CDATA section body) and folds it into the current
// logical text run, mirroring the decoder path: whitespace-only chunks
// are dropped, others coalesce until the next element tag.
func (pr *pruner) chunk(tokRel int, cdata bool) error {
	s := pr.s
	depth := len(pr.stack)
	if depth == 0 || !pr.win && pr.p.Flags(pr.stack[depth-1].sym)&dtd.KeepText == 0 {
		// Nothing of this chunk reaches the output — text outside the root
		// is tokenized and validated but ignored, exactly like the decoder
		// path, and π drops this element's text — so it is validated in
		// place; only the run's existence matters.
		info, err := s.skipText(-1, cdata)
		if err == nil && depth > 0 && !info.ws {
			pr.runPending = true
		}
		return err
	}
	dst := pr.textBuf
	prevLen := len(dst)
	out, info, err := s.text(dst, -1, cdata)
	if cdata {
		// CDATA bodies are re-escaped on output, never copied raw.
		info.verbatim = false
	}
	if err != nil {
		pr.textBuf = out[:prevLen]
		return err
	}
	if info.ws {
		pr.textBuf = out[:prevLen]
		if pr.win {
			// Dropped bytes must not ride along in the window.
			pr.flushWindowUpTo(tokRel)
			pr.winRestart()
		}
		return nil
	}
	pr.runPending = true
	if pr.win {
		top := &pr.stack[depth-1]
		if info.verbatim && prevLen == 0 && pr.p.Flags(top.sym)&dtd.KeepText != 0 {
			// The raw bytes are exactly the canonical output, and no
			// earlier decoded text from this run is pending in textBuf
			// (which a later window flush would reorder behind these
			// bytes): keep them in the window, not in textBuf.
			pr.closeOpen()
			pr.textBuf = out[:prevLen]
			pr.maybeSlide()
			return nil
		}
		pr.flushWindowUpTo(tokRel)
		pr.textBuf = out
		pr.winRestart()
		return nil
	}
	pr.textBuf = out
	return nil
}

// flushText ends the current logical text run: counts it, validates its
// placement, and writes the escaped bytes if π keeps the element's text.
func (pr *pruner) flushText() error {
	if !pr.runPending {
		return nil
	}
	pr.runPending = false
	pr.st.TextIn++
	top := &pr.stack[len(pr.stack)-1]
	if pr.opts.Validate {
		if pr.mode == modeFragment && len(pr.stack) == pr.ctxBase {
			// The context element's incoming DFA state is unknown here;
			// record the event for the spine to replay at the splice.
			pr.events = append(pr.events, eventText)
		} else {
			next := top.aut.NextText(top.state)
			if next < 0 {
				pr.textBuf = pr.textBuf[:0]
				return fmt.Errorf("text content not allowed in %s", pr.p.Syms.Info(top.sym).Name)
			}
			top.state = next
		}
	}
	if pr.p.Flags(top.sym)&dtd.KeepText != 0 {
		pr.closeOpen()
		writeEscapedText(pr.em, pr.textBuf)
		pr.st.TextOut++
	}
	pr.textBuf = pr.textBuf[:0]
	return nil
}

// closeOpen commits a pending start-tag '>'. When the '>' is riding in
// the raw-copy window its bytes flow out with the window; otherwise it
// is written here.
func (pr *pruner) closeOpen() {
	if !pr.open {
		return
	}
	pr.open = false
	if pr.openInWin {
		pr.openInWin = false
		return
	}
	pr.em.litByte('>')
}

// flushWindowUpTo writes the window's verbatim span up to mark-relative
// position rel and releases the mark; the caller restarts the window
// after consuming the current (non-verbatim) token. A provisional
// start-tag '>' at the end of the span is withheld — closeOpen writes
// it later if the element gets kept content, and "/>" replaces it if
// the element self-closes in the output.
func (pr *pruner) flushWindowUpTo(rel int) {
	s := pr.s
	end := rel
	if pr.openInWin && pr.openRel < end {
		end = pr.openRel
		pr.openInWin = false
	}
	if end > 0 {
		pr.em.raw(s.buf, s.mark, s.mark+end)
	}
	s.clearMark()
}

// winRestart re-pins the window at the current position.
func (pr *pruner) winRestart() {
	if pr.win {
		pr.s.setMark()
	}
}

// maybeSlide streams out the window's committed bytes once it grows
// past windowFlushSize, so raw-copied subtrees never buffer wholesale.
func (pr *pruner) maybeSlide() {
	s := pr.s
	if s.pos-s.mark < windowFlushSize {
		return
	}
	if pr.openInWin {
		if pr.openRel > 0 {
			pr.em.raw(s.buf, s.mark, s.mark+pr.openRel)
			s.mark += pr.openRel
			pr.openRel = 0
		}
		return
	}
	pr.em.raw(s.buf, s.mark, s.pos)
	s.mark = s.pos
}

// closeWindow flushes the remaining span and deactivates raw copying.
func (pr *pruner) closeWindow() {
	s := pr.s
	if s.mark >= 0 && s.pos > s.mark {
		pr.em.raw(s.buf, s.mark, s.pos)
	}
	s.clearMark()
	pr.win = false
	pr.openInWin = false
}

func (pr *pruner) intern(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if p, ok := pr.prefixes[string(b)]; ok {
		return p
	}
	if pr.prefixes == nil {
		pr.prefixes = make(map[string]string)
	}
	p := string(b)
	pr.prefixes[p] = p
	return p
}

// startTag handles a start (or empty-element) tag; the scanner mark is
// at the '<' and the '<' is consumed.
func (pr *pruner) startTag(tokRel int) error {
	s := pr.s
	nameRel := s.pos - s.mark
	ok, err := s.readName()
	if err != nil {
		return err
	}
	if !ok {
		return errSyntax("expected element name after <")
	}
	nameEndRel := s.pos - s.mark
	name := s.buf[s.mark+nameRel : s.mark+nameEndRel]
	if !s.checkName(name) {
		return errSyntax("invalid XML name: " + string(name))
	}
	prefixB, local, okn := splitName(name)
	if !okn {
		return errSyntax("expected element name after <")
	}
	if err := pr.flushText(); err != nil {
		return err
	}
	pr.st.ElementsIn++
	pr.sawRoot = true
	sym, found := pr.p.Syms.Lookup(local)
	if !found {
		return fmt.Errorf("element %q not declared in DTD", local)
	}
	info := pr.p.Syms.Info(sym)
	if pr.opts.Validate {
		if len(pr.stack) == 0 {
			if info.Name != pr.d.Root {
				return fmt.Errorf("root element is %s, DTD requires %s", info.Name, pr.d.Root)
			}
		} else if pr.mode == modeFragment && len(pr.stack) == pr.ctxBase {
			// A child of the fragment's context element: its transition in
			// the context DFA is replayed by the spine at the splice point.
			pr.events = append(pr.events, sym)
		} else {
			// The parent's dense automaton takes the child transition
			// with two array loads — no name hashing on the hot path.
			top := &pr.stack[len(pr.stack)-1]
			top.state = top.aut.Next(top.state, sym)
			if top.state < 0 {
				return fmt.Errorf("element %s not allowed here in content of %s",
					info.Name, pr.p.Syms.Info(top.sym).Name)
			}
		}
	}
	flags := pr.p.Flags(sym)

	if flags&dtd.KeepElem == 0 {
		// Discarded subtree: the root's end-tag name must still match,
		// so copy the full name before attribute spans invalidate it.
		pr.pushSkipName(name)
		if pr.win {
			pr.flushWindowUpTo(tokRel)
		} else {
			// Release the token mark: nothing of the discarded subtree
			// needs to stay buffered, however long it runs.
			s.clearMark()
		}
		empty, err := pr.skipAttrs()
		if err != nil {
			return err
		}
		if !empty {
			if err := pr.skipScan(); err != nil {
				return err
			}
		} else {
			pr.popSkipName()
		}
		pr.winRestart()
		return nil
	}

	prefix := pr.intern(prefixB)
	pr.closeOpen()

	// Raw-copy window activation: every name reachable from this
	// element is in π, so on valid inputs the whole subtree projects to
	// itself and its canonical spans can be copied through.
	if !pr.win && pr.opts.RawCopy && flags&dtd.RawCopy != 0 {
		pr.win = true
		tokRel = 0 // mark already sits at this token's '<'
	}

	// Lazy tag rendering: while the tag stays canonical its rendering is
	// exactly the raw input span [tokRel, ...), so nothing is materialised
	// into tagBuf — in a raw-copy window the bytes ride the window, and
	// outside one they are written straight from the scanner's buffer. At
	// the first deviation, demote copies the still-canonical head of the
	// span into tagBuf and kept attributes append canonically from there.
	canonical := len(prefixB) == 0
	pr.tagBuf = pr.tagBuf[:0]
	demote := func(boundaryRel int) {
		canonical = false
		pr.tagBuf = append(pr.tagBuf[:0], s.buf[s.mark+tokRel:s.mark+boundaryRel]...)
	}
	if !canonical {
		// The prefix is dropped in canonical output, so the raw span was
		// never equal to the rendering; start tagBuf from scratch.
		pr.tagBuf = append(pr.tagBuf, '<')
		pr.tagBuf = append(pr.tagBuf, info.Tag...)
	}

	if pr.opts.Validate {
		decl := pr.p.Attrs(sym)
		if cap(pr.seen) < len(decl) {
			pr.seen = make([]bool, len(decl))
		}
		pr.seen = pr.seen[:len(decl)]
		for i := range pr.seen {
			pr.seen[i] = false
		}
	}

	empty := false
	for {
		preSpace := s.pos - s.mark
		s.space()
		spaceLen := (s.pos - s.mark) - preSpace
		b, ok := s.getc()
		if !ok {
			return s.readErr()
		}
		if b == '/' {
			if canonical && spaceLen != 0 {
				demote(preSpace)
			}
			b2, ok := s.getc()
			if !ok {
				return s.readErr()
			}
			if b2 != '>' {
				return errSyntax("expected /> in element")
			}
			empty = true
			break
		}
		if b == '>' {
			if canonical && spaceLen != 0 {
				demote(preSpace)
			}
			break
		}
		s.ungetc()
		// attrCanon tracks whether this attribute's raw bytes (from
		// preSpace) are already its canonical rendering.
		attrCanon := spaceLen == 1 && s.buf[s.mark+preSpace] == ' '
		anRel := s.pos - s.mark
		ok, err := s.readName()
		if err != nil {
			return err
		}
		if !ok {
			return errSyntax("expected attribute name in element")
		}
		anEndRel := s.pos - s.mark
		if !s.checkName(s.buf[s.mark+anRel : s.mark+anEndRel]) {
			return errSyntax("invalid XML name: " + string(s.buf[s.mark+anRel:s.mark+anEndRel]))
		}
		eqRel := s.pos - s.mark
		s.space()
		if s.pos-s.mark != eqRel {
			attrCanon = false
		}
		b, ok = s.getc()
		if !ok {
			return s.readErr()
		}
		if b != '=' {
			return errSyntax("attribute name without = in element")
		}
		qRel := s.pos - s.mark
		s.space()
		if s.pos-s.mark != qRel {
			attrCanon = false
		}
		qb, ok := s.getc()
		if !ok {
			return s.readErr()
		}
		if qb != '"' && qb != '\'' {
			return errSyntax("unquoted or missing attribute value in element")
		}
		if qb != '"' {
			attrCanon = false
		}
		var vinfo textInfo
		pr.attrVal, vinfo, err = s.text(pr.attrVal[:0], int(qb), false)
		if err != nil {
			return err
		}
		if !vinfo.verbatim {
			attrCanon = false
		}

		// Re-derive the name from its offsets: the value decode may
		// have slid the buffer.
		aname := s.buf[s.mark+anRel : s.mark+anEndRel]
		aprefix, alocal, okn := splitName(aname)
		if !okn {
			return errSyntax("expected attribute name in element")
		}
		decl := pr.p.Attrs(sym)
		api := -1
		for i := range decl {
			if string(alocal) == decl[i].Attr {
				api = i
				break
			}
		}
		if pr.opts.Validate && api >= 0 {
			pr.seen[api] = true
		}
		if string(aprefix) == "xmlns" || string(alocal) == "xmlns" {
			if canonical {
				demote(preSpace)
			}
			continue
		}
		if pr.opts.Validate {
			if api < 0 {
				return fmt.Errorf("undeclared attribute %q on %s", alocal, info.Tag)
			}
			ad := decl[api].Def
			if len(ad.Enum) > 0 && !inEnum(ad.Enum, pr.attrVal) {
				return fmt.Errorf("attribute %q on %s has value %q outside its enumeration", alocal, info.Tag, pr.attrVal)
			}
		}
		keep := false
		if api >= 0 {
			keep = decl[api].Keep
		} else {
			keep = pr.p.KeepExtraAttr(sym, alocal)
		}
		if !keep {
			if canonical {
				demote(preSpace)
			}
			continue
		}
		if len(aprefix) != 0 {
			attrCanon = false
		}
		if canonical && attrCanon {
			continue // the raw span already carries this attribute canonically
		}
		if canonical {
			demote(preSpace)
		}
		pr.tagBuf = append(pr.tagBuf, ' ')
		pr.tagBuf = append(pr.tagBuf, alocal...)
		pr.tagBuf = append(pr.tagBuf, '=', '"')
		pr.tagBuf = appendEscapedAttr(pr.tagBuf, pr.attrVal)
		pr.tagBuf = append(pr.tagBuf, '"')
	}

	if pr.opts.Validate {
		decl := pr.p.Attrs(sym)
		for i := range decl {
			if decl[i].Def.Required && !pr.seen[i] {
				return fmt.Errorf("missing required attribute %q on %s", decl[i].Def.Attr, info.Tag)
			}
		}
	}

	pr.stack = append(pr.stack, frame{sym: sym, prefix: prefix, state: info.Dense.Start(), aut: info.Dense})
	if len(pr.stack) > pr.st.MaxDepth {
		pr.st.MaxDepth = len(pr.stack)
	}
	if pr.win && pr.winDepth == 0 {
		pr.winDepth = len(pr.stack)
	}

	if empty {
		// The decoder synthesizes the end element immediately.
		if pr.opts.Validate {
			top := pr.stack[len(pr.stack)-1]
			if !top.aut.Accepting(top.state) {
				return fmt.Errorf("content of %s is incomplete (model %s)", info.Name, info.Def.Content)
			}
		}
		pr.stack = pr.stack[:len(pr.stack)-1]
		pr.st.ElementsOut++
		if pr.win {
			if canonical {
				pr.maybeSlide()
			} else {
				pr.flushWindowUpTo(tokRel)
				pr.em.lit(pr.tagBuf)
				pr.em.litString("/>")
				pr.winRestart()
			}
			if len(pr.stack) < pr.winDepth {
				pr.closeWindow()
				pr.winDepth = 0
			}
		} else if canonical {
			pr.em.raw(s.buf, s.mark+tokRel, s.pos)
		} else {
			pr.em.lit(pr.tagBuf)
			pr.em.litString("/>")
		}
		return nil
	}

	pr.open = true
	if pr.win {
		if canonical {
			pr.openInWin = true
			pr.openRel = (s.pos - s.mark) - 1
			pr.maybeSlide()
		} else {
			pr.flushWindowUpTo(tokRel)
			pr.em.lit(pr.tagBuf)
			pr.openInWin = false
			pr.winRestart()
		}
	} else if canonical {
		// The trailing '>' stays deferred (closeOpen) so the element can
		// still self-close in the output.
		pr.em.raw(s.buf, s.mark+tokRel, s.pos-1)
	} else {
		pr.em.lit(pr.tagBuf)
	}
	return nil
}

// endTag handles an end tag; "</" is consumed and the mark is at '<'.
func (pr *pruner) endTag(tokRel int) error {
	s := pr.s
	nameRel := s.pos - s.mark
	ok, err := s.readName()
	if err != nil {
		return err
	}
	if !ok {
		return errSyntax("expected element name after </")
	}
	nameEndRel := s.pos - s.mark
	preSpace := s.pos - s.mark
	s.space()
	spaceLen := (s.pos - s.mark) - preSpace
	b, ok := s.getc()
	if !ok {
		return s.readErr()
	}
	if b != '>' {
		return errSyntax("invalid characters between </" +
			string(s.buf[s.mark+nameRel:s.mark+nameEndRel]) + " and >")
	}
	name := s.buf[s.mark+nameRel : s.mark+nameEndRel]
	if !s.checkName(name) {
		return errSyntax("invalid XML name: " + string(name))
	}
	prefixB, local, okn := splitName(name)
	if !okn {
		return errSyntax("expected element name after </")
	}
	if err := pr.flushText(); err != nil {
		return err
	}
	if len(pr.stack) == 0 {
		return fmt.Errorf("unbalanced end element %s", local)
	}
	top := pr.stack[len(pr.stack)-1]
	info := pr.p.Syms.Info(top.sym)
	if string(local) != info.Tag || string(prefixB) != top.prefix {
		return fmt.Errorf("element <%s> closed by </%s>", info.Tag, name)
	}
	if pr.opts.Validate && !top.aut.Accepting(top.state) {
		return fmt.Errorf("content of %s is incomplete (model %s)", info.Name, info.Def.Content)
	}
	pr.stack = pr.stack[:len(pr.stack)-1]
	pr.st.ElementsOut++

	if pr.open {
		pr.open = false
		if pr.win {
			pr.flushWindowUpTo(tokRel)
			pr.em.litString("/>")
			pr.winRestart()
		} else {
			pr.em.litString("/>")
		}
		pr.openInWin = false
	} else if pr.win {
		if len(prefixB) == 0 && spaceLen == 0 {
			pr.maybeSlide()
		} else {
			pr.flushWindowUpTo(tokRel)
			pr.em.litString("</")
			pr.em.litString(info.Tag)
			pr.em.litByte('>')
			pr.winRestart()
		}
	} else if len(prefixB) == 0 && spaceLen == 0 {
		pr.em.raw(s.buf, s.mark+tokRel, s.pos) // raw "</tag>" is canonical
	} else {
		pr.em.litString("</")
		pr.em.litString(info.Tag)
		pr.em.litByte('>')
	}
	if pr.win && len(pr.stack) < pr.winDepth {
		pr.closeWindow()
		pr.winDepth = 0
	}
	return nil
}

func inEnum(enum []string, v []byte) bool {
	for _, e := range enum {
		if string(v) == e {
			return true
		}
	}
	return false
}

// writeEscapedText emits text content with the pruner's escaping
// (matching tree.EscapeText: &, < and > become entities).
func writeEscapedText(em emitter, b []byte) {
	last := 0
	for i := 0; i < len(b); i++ {
		var esc string
		switch b[i] {
		case '&':
			esc = "&amp;"
		case '<':
			esc = "&lt;"
		case '>':
			esc = "&gt;"
		default:
			continue
		}
		em.lit(b[last:i])
		em.litString(esc)
		last = i + 1
	}
	em.lit(b[last:])
}

// appendEscapedAttr appends an attribute value with the pruner's
// escaping (matching tree.EscapeAttr: &, <, > and " become entities).
func appendEscapedAttr(dst, b []byte) []byte {
	for i := 0; i < len(b); i++ {
		switch b[i] {
		case '&':
			dst = append(dst, "&amp;"...)
		case '<':
			dst = append(dst, "&lt;"...)
		case '>':
			dst = append(dst, "&gt;"...)
		case '"':
			dst = append(dst, "&quot;"...)
		default:
			dst = append(dst, b[i])
		}
	}
	return dst
}
