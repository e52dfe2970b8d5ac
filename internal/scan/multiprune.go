package scan

// Shared-scan multi-projection: one pass of the byte-level scanner
// evaluating N compiled projections simultaneously, producing N
// independent span-gather outputs over the same input buffer.
//
// The projector set is fused into a per-symbol decision table
// (dtd.MultiProjection): per-symbol keep-element / keep-text / per-
// attribute bitmasks over the projectors. A "live set" bitmask is
// threaded through the element stack — bit j set means projector j
// keeps every element on the path, so this region of the document is
// being emitted for j. A child's live set is always a subset of its
// parent's, so the masks shrink monotonically with depth and a subtree
// whose live set is empty is dead for every projector: it is consumed
// once with the existing skip-scan machinery (well-formedness only,
// text validated in place), its skipped-node counts distributed to all
// projectors.
//
// Each projector's rendered output is byte-identical to what a serial
// PruneGather with that projector alone would produce. The serial
// pruner's raw-copy windows are not replicated — they are an output
// batching device, not a semantic one: every canonical token is emitted
// here as an input span into the live projectors' SpanLists, and
// adjacent spans merge, so a π-closed subtree still collapses to one
// gather segment per projector. Verbatim text chunks (decoded bytes ==
// raw bytes) are likewise emitted as input spans for the projectors
// keeping them, so kept text is not copied N ways.
//
// Validation is per projector: a serial prune only validates the
// regions it keeps, so with N projectors the verdicts can differ. A
// validation failure kills exactly the projectors whose serial runs
// would have seen it (the emitting-region mask at the failure point, or
// the keeper mask for attribute checks): their error is recorded, their
// bits leave the alive mask, and the scan continues for the rest.
// Syntax and well-formedness errors abort the whole pass — every serial
// run fails on those.

import (
	"fmt"
	"math/bits"
	"sync"

	"xmlproj/internal/dtd"
)

// mframe is one open element of the shared scan.
type mframe struct {
	sym    int32
	prefix string // interned; "" for unprefixed tags
	live   uint64 // projectors keeping every element on this path
	state  int32  // shared content-model DFA state (when validating)
	aut    *dtd.DenseDFA
}

// mpruner is the pooled state of one shared-scan multi-prune. It wraps
// a serial pruner for the scanner and the skip-scan machinery (name
// stack, attribute scratch, the global ElementsIn/TextIn counters) —
// those are projector-independent — and adds the mask-typed mirror of
// the serial pruner's per-element state.
type mpruner struct {
	pr   *pruner
	d    *dtd.DTD
	mp   *dtd.MultiProjection
	opts Options

	outs  []*SpanList
	alive uint64 // projectors not yet killed by a validation error
	errs  []error

	stack   []mframe
	open    uint64 // per-projector deferred start-tag '>'
	sawRoot bool

	runPending bool

	tagBufs [][]byte // per-projector demoted tag renderings
	attrBuf []byte   // shared canonical attr / escaped text / end-tag scratch

	elemsOut, textOut   []int64
	elemsSkip, textSkip []int64
	maxDepth            []int
}

var multiPool = sync.Pool{New: func() any { return &mpruner{pr: &pruner{s: NewScanner(nil)}} }}

// PruneMulti prunes in-memory input against every projector of the
// fused decision table in a single scanner pass. sls must hold one
// SpanList per projector; each is Reset over data and receives that
// projector's output, byte-identical to a serial PruneGather with the
// same projector alone. The returned slices are per projector: errs[j]
// is non-nil when projector j's serial prune would have failed (its
// SpanList contents are then meaningless), and stats[j] mirrors the
// serial prune's counters. Like PruneGather, MaxTokenSize is not
// enforced, and opts.RawCopy is irrelevant (span merging subsumes the
// raw-copy window).
func PruneMulti(sls []*SpanList, data []byte, d *dtd.DTD, mp *dtd.MultiProjection, opts Options) ([]Stats, []error) {
	if len(sls) != mp.N() {
		panic("scan.PruneMulti: len(sls) != mp.N()")
	}
	for _, sl := range sls {
		sl.Reset(data)
	}
	m := multiPool.Get().(*mpruner)
	m.prep(sls, data, d, mp, opts)
	gerr := m.run()
	n := mp.N()
	stats := make([]Stats, n)
	errs := make([]error, n)
	for j := 0; j < n; j++ {
		if m.errs[j] != nil {
			errs[j] = m.errs[j]
		} else {
			errs[j] = gerr
		}
		stats[j] = Stats{
			ElementsIn:      m.pr.st.ElementsIn,
			ElementsOut:     m.elemsOut[j],
			TextIn:          m.pr.st.TextIn,
			TextOut:         m.textOut[j],
			ElementsSkipped: m.elemsSkip[j],
			TextSkipped:     m.textSkip[j],
			MaxDepth:        m.maxDepth[j],
		}
	}
	m.release()
	multiPool.Put(m)
	return stats, errs
}

func (m *mpruner) prep(sls []*SpanList, data []byte, d *dtd.DTD, mp *dtd.MultiProjection, opts Options) {
	pr := m.pr
	pr.s.ResetBytes(data)
	pr.s.SetMaxTokenSize(opts.MaxTokenSize)
	pr.st = Stats{}
	pr.textBuf = pr.textBuf[:0]
	pr.skipBuf = pr.skipBuf[:0]
	pr.skipOffs = pr.skipOffs[:0]
	pr.mode, pr.ctxBase, pr.sp = modeNormal, 0, nil
	m.d, m.mp, m.opts = d, mp, opts
	m.outs = append(m.outs[:0], sls...)
	m.alive = mp.All()
	m.open, m.sawRoot, m.runPending = 0, false, false
	m.stack = m.stack[:0]
	n := mp.N()
	if cap(m.errs) < n {
		m.errs = make([]error, n)
		m.tagBufs = make([][]byte, n)
		m.elemsOut = make([]int64, n)
		m.textOut = make([]int64, n)
		m.elemsSkip = make([]int64, n)
		m.textSkip = make([]int64, n)
		m.maxDepth = make([]int, n)
	}
	m.errs = m.errs[:n]
	m.tagBufs = m.tagBufs[:n]
	m.elemsOut, m.textOut = m.elemsOut[:n], m.textOut[:n]
	m.elemsSkip, m.textSkip = m.elemsSkip[:n], m.textSkip[:n]
	m.maxDepth = m.maxDepth[:n]
	for j := 0; j < n; j++ {
		m.errs[j] = nil
		m.elemsOut[j], m.textOut[j] = 0, 0
		m.elemsSkip[j], m.textSkip[j] = 0, 0
		m.maxDepth[j] = 0
	}
}

// release drops per-prune references so the pool pins neither the
// caller's input nor its span lists. Scratch keeps its capacity.
func (m *mpruner) release() {
	m.pr.s.Reset(nil)
	m.d, m.mp = nil, nil
	for i := range m.outs {
		m.outs[i] = nil
	}
	m.outs = m.outs[:0]
	for i := range m.stack {
		m.stack[i] = mframe{}
	}
	m.stack = m.stack[:0]
	for j := range m.errs {
		m.errs[j] = nil
	}
}

// Mask-fanned emission helpers: one span/lit append per set bit.

func (m *mpruner) rawTo(mask uint64, off, end int) {
	for mask != 0 {
		j := bits.TrailingZeros64(mask)
		mask &^= 1 << uint(j)
		m.outs[j].raw(nil, off, end)
	}
}

func (m *mpruner) litTo(mask uint64, p []byte) {
	for mask != 0 {
		j := bits.TrailingZeros64(mask)
		mask &^= 1 << uint(j)
		m.outs[j].lit(p)
	}
}

func (m *mpruner) litStringTo(mask uint64, s string) {
	for mask != 0 {
		j := bits.TrailingZeros64(mask)
		mask &^= 1 << uint(j)
		m.outs[j].litString(s)
	}
}

func (m *mpruner) litByteTo(mask uint64, c byte) {
	for mask != 0 {
		j := bits.TrailingZeros64(mask)
		mask &^= 1 << uint(j)
		m.outs[j].litByte(c)
	}
}

func (m *mpruner) addTo(counts []int64, mask uint64, n int64) {
	for mask != 0 {
		j := bits.TrailingZeros64(mask)
		mask &^= 1 << uint(j)
		counts[j] += n
	}
}

// kill records err for every projector in mask and removes them from
// the alive set. Their outputs are abandoned — the caller discards the
// SpanList of any projector with a non-nil error.
func (m *mpruner) kill(mask uint64, err error) {
	mask &= m.alive
	for mk := mask; mk != 0; {
		j := bits.TrailingZeros64(mk)
		mk &^= 1 << uint(j)
		m.errs[j] = err
	}
	m.alive &^= mask
	m.open &^= mask
}

// closeOpen commits pending start-tag '>'s for the projectors in mask.
func (m *mpruner) closeOpen(mask uint64) {
	pend := m.open & mask
	if pend == 0 {
		return
	}
	m.open &^= pend
	m.litByteTo(pend, '>')
}

func (m *mpruner) run() error {
	s := m.pr.s
	for m.alive != 0 {
		tokStart := s.pos
		b, ok := s.getc()
		if !ok {
			if !s.atEOF() {
				return s.rerr
			}
			break
		}
		if b != '<' {
			s.ungetc()
			if err := m.chunk(tokStart, false); err != nil {
				return err
			}
			continue
		}
		b2, ok := s.getc()
		if !ok {
			return s.readErr()
		}
		switch b2 {
		case '/':
			if err := m.endTag(tokStart); err != nil {
				return err
			}
		case '?':
			if err := s.skipPI(); err != nil {
				return err
			}
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
				if err := s.skipComment(); err != nil {
					return err
				}
			case '[':
				if err := s.expectCDATA(); err != nil {
					return err
				}
				if err := m.chunk(s.pos, true); err != nil {
					return err
				}
			default:
				if err := s.skipDirective(); err != nil {
					return err
				}
			}
		default:
			s.ungetc()
			if err := m.startTag(tokStart); err != nil {
				return err
			}
		}
	}
	if m.alive == 0 {
		// Every projector has already failed the way its serial run
		// would; the rest of the input is irrelevant.
		return nil
	}
	if len(m.stack) != 0 {
		top := m.stack[len(m.stack)-1]
		return fmt.Errorf("unterminated element %s", m.mp.Syms.Info(top.sym).Name)
	}
	if !m.sawRoot {
		return fmt.Errorf("no root element in input")
	}
	return nil
}

// chunk folds one character-data chunk (or CDATA body) into the current
// logical text run. A verbatim chunk whose run has no earlier decoded
// bytes pending is emitted immediately as an input span for the
// projectors keeping this element's text — its raw bytes equal the
// escaped output — instead of being copied into the run buffer.
func (m *mpruner) chunk(chunkStart int, cdata bool) error {
	s := m.pr.s
	depth := len(m.stack)
	var keep uint64
	if depth > 0 {
		top := &m.stack[depth-1]
		keep = top.live & m.alive & m.mp.KeepText(top.sym)
	}
	if keep == 0 {
		// Text outside the root is tokenized and validated but ignored,
		// exactly like the serial pruner; and when no surviving projector
		// keeps this element's text, the run only needs its counters and
		// placement validation, not its bytes. (Masks shrink only at
		// element tags, where the run ends, so keep is still 0 at flush.)
		// Either way the chunk is validated in place.
		info, err := s.skipText(-1, cdata)
		if err == nil && depth > 0 && !info.ws {
			m.runPending = true
		}
		return err
	}
	dst := m.pr.textBuf
	prevLen := len(dst)
	out, info, err := s.text(dst, -1, cdata)
	if cdata {
		// CDATA bodies are re-escaped on output, never copied raw.
		info.verbatim = false
	}
	if err != nil {
		m.pr.textBuf = out[:prevLen]
		return err
	}
	if info.ws {
		m.pr.textBuf = out[:prevLen]
		return nil
	}
	m.runPending = true
	if info.verbatim && prevLen == 0 {
		// The raw bytes are exactly the canonical output and nothing
		// earlier in this run is pending in the buffer (which a later
		// flush would reorder behind these bytes).
		m.closeOpen(keep)
		m.rawTo(keep, chunkStart, s.pos)
		m.pr.textBuf = out[:prevLen]
		return nil
	}
	m.pr.textBuf = out
	return nil
}

// flushText ends the current logical text run: counts it (globally and
// per dead-region projector), validates its placement for the live
// projectors, and emits the escaped remainder to the keepers.
func (m *mpruner) flushText() error {
	if !m.runPending {
		return nil
	}
	m.runPending = false
	m.pr.st.TextIn++
	top := &m.stack[len(m.stack)-1]
	if sk := m.alive &^ top.live; sk != 0 {
		m.addTo(m.textSkip, sk, 1)
	}
	live := top.live & m.alive
	if m.opts.Validate && live != 0 {
		next := top.aut.NextText(top.state)
		if next < 0 {
			m.kill(live, fmt.Errorf("text content not allowed in %s", m.mp.Syms.Info(top.sym).Name))
			m.pr.textBuf = m.pr.textBuf[:0]
			return nil
		}
		top.state = next
	}
	if keep := live & m.alive & m.mp.KeepText(top.sym); keep != 0 {
		m.closeOpen(keep)
		if len(m.pr.textBuf) > 0 {
			m.attrBuf = appendEscapedText(m.attrBuf[:0], m.pr.textBuf)
			m.litTo(keep, m.attrBuf)
		}
		m.addTo(m.textOut, keep, 1)
	}
	m.pr.textBuf = m.pr.textBuf[:0]
	return nil
}

// skipAll consumes the content and end tag of the current discarded
// element — its full name already sits on the skip name stack — and
// distributes the skipped-node counts to every surviving projector:
// each one's serial run consumes exactly this region with skipScan,
// either from this element or from a shallower discarded ancestor.
func (m *mpruner) skipAll() error {
	preE, preT := m.pr.st.ElementsSkipped, m.pr.st.TextSkipped
	if err := m.pr.skipScan(); err != nil {
		return err
	}
	if d := m.pr.st.ElementsSkipped - preE; d != 0 {
		m.addTo(m.elemsSkip, m.alive, d)
	}
	if d := m.pr.st.TextSkipped - preT; d != 0 {
		m.addTo(m.textSkip, m.alive, d)
	}
	return nil
}

// startTag handles a start (or empty-element) tag; the '<' is consumed
// and tokStart is its absolute offset.
func (m *mpruner) startTag(tokStart int) error {
	s := m.pr.s
	nameOff := s.pos
	ok, err := s.readName()
	if err != nil {
		return err
	}
	if !ok {
		return errSyntax("expected element name after <")
	}
	nameEnd := s.pos
	name := s.buf[nameOff:nameEnd]
	if !s.checkName(name) {
		return errSyntax("invalid XML name: " + string(name))
	}
	prefixB, local, okn := splitName(name)
	if !okn {
		return errSyntax("expected element name after <")
	}
	if err := m.flushText(); err != nil {
		return err
	}
	m.pr.st.ElementsIn++
	m.sawRoot = true
	// P: projectors for which this element sits in an emitting region.
	// The rest are inside a subtree their serial runs consume with
	// skipScan — no symbol lookup, no validation, and this element
	// counts as skipped for them. (By the serial contract a discard
	// root is counted skipped only for projectors it is *inside* a
	// skipped region of, not for the ones discarding it right here.)
	var P uint64
	if len(m.stack) == 0 {
		P = m.alive
	} else {
		P = m.stack[len(m.stack)-1].live & m.alive
	}
	if sk := m.alive &^ P; sk != 0 {
		m.addTo(m.elemsSkip, sk, 1)
	}
	var info *dtd.SymInfo
	var K uint64
	sym, found := m.mp.Syms.Lookup(local)
	if !found {
		m.kill(P, fmt.Errorf("element %q not declared in DTD", local))
	} else {
		info = m.mp.Syms.Info(sym)
		if m.opts.Validate && P != 0 {
			if len(m.stack) == 0 {
				if info.Name != m.d.Root {
					m.kill(P, fmt.Errorf("root element is %s, DTD requires %s", info.Name, m.d.Root))
					P = 0
				}
			} else {
				top := &m.stack[len(m.stack)-1]
				next := top.aut.Next(top.state, sym)
				if next < 0 {
					m.kill(P, fmt.Errorf("element %s not allowed here in content of %s",
						info.Name, m.mp.Syms.Info(top.sym).Name))
					P = 0
				} else {
					top.state = next
				}
			}
		}
		K = P & m.alive & m.mp.KeepElem(sym)
	}

	if K == 0 {
		// Dead for every surviving projector: one skip pass over the
		// tag and subtree, exactly like the serial discard path.
		if m.alive == 0 {
			return nil
		}
		m.pr.pushSkipName(name)
		empty, err := m.pr.skipAttrs()
		if err != nil {
			return err
		}
		if !empty {
			return m.skipAll()
		}
		m.pr.popSkipName()
		return nil
	}

	prefix := m.pr.intern(prefixB)
	m.closeOpen(K)

	// Lazy tag rendering, masked: canonMask holds the keepers whose
	// rendering so far is exactly the raw span [tokStart, ...). At a
	// projector's first deviation it is demoted — the still-canonical
	// head of the span is copied into its tag buffer and kept attributes
	// append canonically from there. The per-attribute parse runs once;
	// only the keep decisions differ across projectors.
	canonMask := uint64(0)
	if len(prefixB) == 0 {
		canonMask = K
	} else {
		// The prefix is dropped in canonical output, so no raw span was
		// ever equal to any keeper's rendering.
		for mk := K; mk != 0; {
			j := bits.TrailingZeros64(mk)
			mk &^= 1 << uint(j)
			m.tagBufs[j] = append(m.tagBufs[j][:0], '<')
			m.tagBufs[j] = append(m.tagBufs[j], info.Tag...)
		}
	}
	demote := func(mask uint64, boundary int) {
		for mk := mask; mk != 0; {
			j := bits.TrailingZeros64(mk)
			mk &^= 1 << uint(j)
			m.tagBufs[j] = append(m.tagBufs[j][:0], s.buf[tokStart:boundary]...)
		}
		canonMask &^= mask
	}

	decl := m.mp.Attrs(sym)
	if m.opts.Validate {
		if cap(m.pr.seen) < len(decl) {
			m.pr.seen = make([]bool, len(decl))
		}
		m.pr.seen = m.pr.seen[:len(decl)]
		for i := range m.pr.seen {
			m.pr.seen[i] = false
		}
	}

	empty := false
	for {
		preSpace := s.pos
		s.space()
		spaceLen := s.pos - preSpace
		b, ok := s.getc()
		if !ok {
			return s.readErr()
		}
		if b == '/' {
			if spaceLen != 0 && canonMask != 0 {
				demote(canonMask, preSpace)
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
			if spaceLen != 0 && canonMask != 0 {
				demote(canonMask, preSpace)
			}
			break
		}
		s.ungetc()
		// attrCanon tracks whether this attribute's raw bytes (from
		// preSpace) are already its canonical rendering — a projector-
		// independent property of the input.
		attrCanon := spaceLen == 1 && s.buf[preSpace] == ' '
		anOff := s.pos
		ok, err := s.readName()
		if err != nil {
			return err
		}
		if !ok {
			return errSyntax("expected attribute name in element")
		}
		anEnd := s.pos
		if !s.checkName(s.buf[anOff:anEnd]) {
			return errSyntax("invalid XML name: " + string(s.buf[anOff:anEnd]))
		}
		eqOff := s.pos
		s.space()
		if s.pos != eqOff {
			attrCanon = false
		}
		b, ok = s.getc()
		if !ok {
			return s.readErr()
		}
		if b != '=' {
			return errSyntax("attribute name without = in element")
		}
		qOff := s.pos
		s.space()
		if s.pos != qOff {
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
		m.pr.attrVal, vinfo, err = s.text(m.pr.attrVal[:0], int(qb), false)
		if err != nil {
			return err
		}
		if !vinfo.verbatim {
			attrCanon = false
		}
		aname := s.buf[anOff:anEnd]
		aprefix, alocal, okn := splitName(aname)
		if !okn {
			return errSyntax("expected attribute name in element")
		}
		api := -1
		for i := range decl {
			if string(alocal) == decl[i].Attr {
				api = i
				break
			}
		}
		if m.opts.Validate && api >= 0 {
			m.pr.seen[api] = true
		}
		if string(aprefix) == "xmlns" || string(alocal) == "xmlns" {
			if canonMask != 0 {
				demote(canonMask, preSpace)
			}
			continue
		}
		if m.opts.Validate {
			// Only the projectors keeping this element validate its
			// attributes — a discarding serial run skipAttrs past them.
			if vk := K & m.alive; vk != 0 {
				if api < 0 {
					m.kill(vk, fmt.Errorf("undeclared attribute %q on %s", alocal, info.Tag))
				} else if ad := decl[api].Def; len(ad.Enum) > 0 && !inEnum(ad.Enum, m.pr.attrVal) {
					m.kill(vk, fmt.Errorf("attribute %q on %s has value %q outside its enumeration", alocal, info.Tag, m.pr.attrVal))
				}
			}
		}
		var keepMask uint64
		if api >= 0 {
			keepMask = decl[api].Keep
		} else {
			keepMask = m.mp.KeepExtraAttr(sym, alocal)
		}
		keepMask &= K
		// Keepers dropping this attribute can no longer ride the raw span.
		if dm := canonMask &^ keepMask; dm != 0 {
			demote(dm, preSpace)
		}
		if len(aprefix) != 0 {
			attrCanon = false
		}
		if !attrCanon && canonMask != 0 {
			demote(canonMask, preSpace)
		}
		// Still-canonical keepers carry the attribute inside their raw
		// span; the demoted ones get its canonical rendering appended
		// (built once, shared).
		if appendMask := keepMask &^ canonMask; appendMask != 0 {
			m.attrBuf = append(m.attrBuf[:0], ' ')
			m.attrBuf = append(m.attrBuf, alocal...)
			m.attrBuf = append(m.attrBuf, '=', '"')
			m.attrBuf = appendEscapedAttr(m.attrBuf, m.pr.attrVal)
			m.attrBuf = append(m.attrBuf, '"')
			for mk := appendMask; mk != 0; {
				j := bits.TrailingZeros64(mk)
				mk &^= 1 << uint(j)
				m.tagBufs[j] = append(m.tagBufs[j], m.attrBuf...)
			}
		}
	}

	if m.opts.Validate {
		if vk := K & m.alive; vk != 0 {
			for i := range decl {
				if decl[i].Def.Required && !m.pr.seen[i] {
					m.kill(vk, fmt.Errorf("missing required attribute %q on %s", decl[i].Def.Attr, info.Tag))
					break
				}
			}
		}
	}

	K &= m.alive
	if K == 0 {
		// Every keeper died mid-tag. The tag is already consumed; the
		// content, if any, is dead for whoever is left.
		if m.alive == 0 || empty {
			return nil
		}
		m.pr.pushSkipName(name)
		return m.skipAll()
	}

	m.stack = append(m.stack, mframe{sym: sym, prefix: prefix, live: K, state: info.Dense.Start(), aut: info.Dense})
	depth := len(m.stack)
	// A projector in K is, by the live-set prefix property, live in
	// every frame below — so this shared depth is its serial depth.
	for mk := K; mk != 0; {
		j := bits.TrailingZeros64(mk)
		mk &^= 1 << uint(j)
		if depth > m.maxDepth[j] {
			m.maxDepth[j] = depth
		}
	}

	if empty {
		if m.opts.Validate {
			top := m.stack[depth-1]
			if !top.aut.Accepting(top.state) {
				m.kill(K, fmt.Errorf("content of %s is incomplete (model %s)", info.Name, info.Def.Content))
			}
		}
		m.stack = m.stack[:depth-1]
		if emit := K & m.alive; emit != 0 {
			m.addTo(m.elemsOut, emit, 1)
			if cm := canonMask & emit; cm != 0 {
				m.rawTo(cm, tokStart, s.pos)
			}
			for mk := emit &^ canonMask; mk != 0; {
				j := bits.TrailingZeros64(mk)
				mk &^= 1 << uint(j)
				m.outs[j].lit(m.tagBufs[j])
				m.outs[j].litString("/>")
			}
		}
		return nil
	}

	if emit := K & m.alive; emit != 0 {
		// The trailing '>' stays deferred per projector (closeOpen) so
		// the element can still self-close in that projector's output.
		if cm := canonMask & emit; cm != 0 {
			m.rawTo(cm, tokStart, s.pos-1)
		}
		for mk := emit &^ canonMask; mk != 0; {
			j := bits.TrailingZeros64(mk)
			mk &^= 1 << uint(j)
			m.outs[j].lit(m.tagBufs[j])
		}
		m.open |= emit
	}
	return nil
}

// endTag handles an end tag; "</" is consumed and tokStart is the
// absolute offset of '<'.
func (m *mpruner) endTag(tokStart int) error {
	s := m.pr.s
	nameOff := s.pos
	ok, err := s.readName()
	if err != nil {
		return err
	}
	if !ok {
		return errSyntax("expected element name after </")
	}
	nameEnd := s.pos
	preSpace := s.pos
	s.space()
	spaceLen := s.pos - preSpace
	b, ok := s.getc()
	if !ok {
		return s.readErr()
	}
	if b != '>' {
		return errSyntax("invalid characters between </" +
			string(s.buf[nameOff:nameEnd]) + " and >")
	}
	name := s.buf[nameOff:nameEnd]
	if !s.checkName(name) {
		return errSyntax("invalid XML name: " + string(name))
	}
	prefixB, local, okn := splitName(name)
	if !okn {
		return errSyntax("expected element name after </")
	}
	if err := m.flushText(); err != nil {
		return err
	}
	if len(m.stack) == 0 {
		return fmt.Errorf("unbalanced end element %s", local)
	}
	top := m.stack[len(m.stack)-1]
	info := m.mp.Syms.Info(top.sym)
	if string(local) != info.Tag || string(prefixB) != top.prefix {
		// skipScan enforces end-tag matching too, so every serial run
		// fails here: a whole-pass error, like the other syntax errors.
		return fmt.Errorf("element <%s> closed by </%s>", info.Tag, name)
	}
	if live := top.live & m.alive; live != 0 && m.opts.Validate && !top.aut.Accepting(top.state) {
		m.kill(live, fmt.Errorf("content of %s is incomplete (model %s)", info.Name, info.Def.Content))
	}
	m.stack = m.stack[:len(m.stack)-1]
	live := top.live & m.alive
	if live == 0 {
		return nil
	}
	m.addTo(m.elemsOut, live, 1)
	op := m.open & live
	if op != 0 {
		m.open &^= op
		m.litStringTo(op, "/>")
	}
	if closed := live &^ op; closed != 0 {
		if len(prefixB) == 0 && spaceLen == 0 {
			m.rawTo(closed, tokStart, s.pos) // raw "</tag>" is canonical
		} else {
			m.attrBuf = append(m.attrBuf[:0], '<', '/')
			m.attrBuf = append(m.attrBuf, info.Tag...)
			m.attrBuf = append(m.attrBuf, '>')
			m.litTo(closed, m.attrBuf)
		}
	}
	return nil
}

// appendEscapedText appends text content with the pruner's escaping
// (matching writeEscapedText: &, < and > become entities).
func appendEscapedText(dst, b []byte) []byte {
	for i := 0; i < len(b); i++ {
		switch b[i] {
		case '&':
			dst = append(dst, "&amp;"...)
		case '<':
			dst = append(dst, "&lt;"...)
		case '>':
			dst = append(dst, "&gt;"...)
		default:
			dst = append(dst, b[i])
		}
	}
	return dst
}
