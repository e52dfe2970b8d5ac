// Package index builds the structural index the parallel pruner plans
// with, one window at a time: StreamIndexer finds the structural '<'
// positions of each window of document bytes, classifies each as a
// start tag, end tag, comment, CDATA section, processing instruction or
// directive, resolves tag names to DTD symbols, and carries element
// depth across windows.
//
// Windows are presented in document order; each must begin with the
// bytes the previous window did not consume. The indexer reports how
// many bytes of a window were covered by complete constructs —
// everything after that (a trailing text run, an incomplete construct)
// must be re-presented at the start of the next window, so a presented
// window always ends exactly at the end of a complete '<'-construct and
// no text run or construct ever straddles one.
//
// Classification is context-free: given that an offset really is a
// structural '<' (outside every tag, comment, CDATA section, PI and
// directive), the construct's kind and extent depend only on the bytes
// from that offset forward. It is tri-state: a construct is complete
// (streamOK), needs bytes beyond the window (streamNeedMore — retry
// when more input arrives), or is malformed in a way the serial scanner
// is guaranteed to error at within the bytes already seen
// (streamMalformed — a '<' inside a start tag, quoted or bare). Only
// the malformed case kills the stream: the caller stops delegating and
// lets the spine pruner reproduce the exact serial error.
package index

import (
	"bytes"
	"errors"
	"fmt"
)

// Kind classifies one structural entry.
type Kind uint8

const (
	// Start is a start tag <e ...>; StartEmpty an empty-element tag
	// <e .../>; End an end tag </e>.
	Start Kind = iota
	StartEmpty
	End
	// Comment, PI, CDATA and Directive are the non-element constructs;
	// they do not change depth.
	Comment
	PI
	CDATA
	Directive
)

// Entry is one structural position: the construct's byte extent
// [Off, End), its kind, the element symbol for tags (-1 when the name
// is not in the DTD or not a tag), and the absolute element depth
// carried across windows. Depth is the number of open elements
// enclosing the construct, with an End tag recording the depth of the
// element it closes — an element's Start and End entries carry the
// same Depth (the root's are 0, its children's 1, and so on).
type Entry struct {
	Off   int
	End   int
	Sym   int32
	Depth int32
	Kind  Kind
}

// ErrTokenTooLong reports a single construct or text gap longer than
// StreamIndexer.MaxTokenSize, detected before any fragment work.
var ErrTokenTooLong = errors.New("index: token exceeds the maximum token size")

// streamStatus is the tri-state result of classifying one construct
// against a bounded window.
type streamStatus uint8

const (
	// streamOK: the construct is complete within the window.
	streamOK streamStatus = iota
	// streamNeedMore: the construct extends past the window; retry with
	// more bytes.
	streamNeedMore
	// streamMalformed: the serial scanner is guaranteed to reject the
	// construct using only the bytes already seen ('<' inside a start
	// tag, bare or inside a closed quoted value).
	streamMalformed
)

// classifyStream classifies the construct starting at the structural
// '<' at data[off]. It is context-free: the result depends only on
// bytes from off forward.
func classifyStream(data []byte, off int, lookup func([]byte) (int32, bool)) (Entry, streamStatus) {
	e := Entry{Off: off, Sym: -1}
	rest := data[off+1:]
	if len(rest) == 0 {
		return e, streamNeedMore
	}
	switch rest[0] {
	case '/':
		return classifyEndTag(data, off, lookup)
	case '?':
		// PI: ends at the first "?>".
		k := bytes.Index(rest[1:], []byte("?>"))
		if k < 0 {
			return e, streamNeedMore
		}
		e.Kind = PI
		e.End = off + 2 + k + 2
		return e, streamOK
	case '!':
		if bytes.HasPrefix(rest, []byte("!--")) {
			k := bytes.Index(rest[3:], []byte("-->"))
			if k < 0 {
				return e, streamNeedMore
			}
			e.Kind = Comment
			e.End = off + 4 + k + 3
			return e, streamOK
		}
		if bytes.HasPrefix(rest, []byte("![CDATA[")) {
			k := bytes.Index(rest[8:], []byte("]]>"))
			if k < 0 {
				return e, streamNeedMore
			}
			e.Kind = CDATA
			e.End = off + 9 + k + 3
			return e, streamOK
		}
		return classifyDirective(data, off)
	default:
		return classifyStartTag(data, off, lookup)
	}
}

// StreamIndexer builds a structural index incrementally, one window at
// a time. Windows must be presented in document order, each beginning
// with the bytes the previous Window call did not consume. The zero
// value is ready to use after setting Lookup and MaxTokenSize.
type StreamIndexer struct {
	// MaxTokenSize bounds a single construct or inter-construct text
	// gap, mirroring the serial scanner's sliding-buffer cap. 0 means
	// no bound.
	MaxTokenSize int
	// Lookup resolves a tag's local name to its DTD symbol; nil leaves
	// every Sym at -1.
	Lookup func(local []byte) (int32, bool)

	depth int32 // open-element depth carried across windows
	dead  bool  // a malformed construct was seen; no further indexing
	ents  []Entry
}

// Window is the index of one presented window.
type Window struct {
	// Entries are the complete constructs found, in document order,
	// with absolute depths. The slice is reused by the next Window
	// call.
	Entries []Entry
	// Consumed is the end offset of the last complete construct: the
	// caller must carry data[Consumed:] — the trailing text run plus
	// any incomplete construct — into the next window.
	Consumed int
	// Dead reports a construct the serial scanner is guaranteed to
	// error at within this window (a malformed start tag, or an end
	// tag with no element open). Entries stops before it; the caller
	// must stop delegating and let the spine reproduce the error.
	Dead bool
	// Err is a MaxTokenSize violation (wrapped ErrTokenTooLong): a
	// single construct or text gap exceeded the cap.
	Err error
}

// Depth returns the current open-element depth (the number of Start
// entries seen without their End), i.e. the depth at the start of the
// next window.
func (si *StreamIndexer) Depth() int { return int(si.depth) }

// Reset returns the indexer to its initial state, keeping buffers.
func (si *StreamIndexer) Reset() {
	si.depth = 0
	si.dead = false
	si.ents = si.ents[:0]
}

// Window indexes one window of document content. data must start with
// the bytes the previous call did not consume (data[Consumed:]).
func (si *StreamIndexer) Window(data []byte) Window {
	si.ents = si.ents[:0]
	w := Window{}
	if si.dead {
		w.Dead = true
		w.Entries = si.ents
		return w
	}
	maxTok := si.MaxTokenSize
	pos := 0
	runStart := 0 // end of the last accepted construct in this window
	for pos < len(data) {
		j := bytes.IndexByte(data[pos:], '<')
		if j < 0 {
			break
		}
		j += pos
		e, st := classifyStream(data, j, si.Lookup)
		if st == streamNeedMore {
			break
		}
		if st == streamMalformed {
			si.dead = true
			w.Dead = true
			break
		}
		if maxTok > 0 {
			// The carry discipline guarantees the text run since the last
			// construct starts inside this window, so these per-window
			// checks bound the whole document.
			if gap := e.Off - runStart; gap > maxTok {
				w.Err = fmt.Errorf("%w (%d-byte text run)", ErrTokenTooLong, gap)
				break
			}
			if ln := e.End - e.Off; ln > maxTok {
				w.Err = fmt.Errorf("%w (%d-byte construct)", ErrTokenTooLong, ln)
				break
			}
		}
		e.Depth = si.depth
		switch e.Kind {
		case Start:
			si.depth++
		case StartEmpty:
			// Depth unchanged, also at depth 0: the serial pruner accepts
			// empty-element tags at document level.
		case End:
			if si.depth == 0 {
				// No element open: the spine errors at this tag
				// ("unbalanced end element"), exactly like serial.
				si.dead = true
				w.Dead = true
			} else {
				si.depth--
				e.Depth = si.depth
			}
		}
		if w.Dead {
			break
		}
		si.ents = append(si.ents, e)
		pos = e.End
		runStart = e.End
	}
	w.Entries = si.ents
	w.Consumed = runStart
	return w
}

// classifyEndTag scans "</name ... >". Malformed interiors still get an
// extent (the first '>'): the fragment that re-tokenizes the region
// reports the precise serial error.
func classifyEndTag(data []byte, off int, lookup func([]byte) (int32, bool)) (Entry, streamStatus) {
	e := Entry{Off: off, Sym: -1, Kind: End}
	k := bytes.IndexByte(data[off:], '>')
	if k < 0 {
		return e, streamNeedMore
	}
	e.End = off + k + 1
	if lookup != nil {
		name := nameAt(data[off+2 : off+k])
		if local := localOf(name); len(local) > 0 {
			if sym, ok := lookup(local); ok {
				e.Sym = sym
			}
		}
	}
	return e, streamOK
}

// classifyStartTag scans "<name attr='...' ...>" respecting quotes ('>'
// is legal inside a quoted attribute value). A '<' inside the tag —
// quoted or not — is malformed: the serial scanner is guaranteed to
// error at that byte with no later input needed, which is what lets the
// indexer distinguish it from a tag merely cut short by a window
// boundary (streamNeedMore).
func classifyStartTag(data []byte, off int, lookup func([]byte) (int32, bool)) (Entry, streamStatus) {
	e := Entry{Off: off, Sym: -1, Kind: Start}
	i := off + 1
	for i < len(data) {
		switch c := data[i]; c {
		case '>':
			e.End = i + 1
			if data[i-1] == '/' {
				e.Kind = StartEmpty
			}
			if lookup != nil {
				name := nameAt(data[off+1 : i])
				if local := localOf(name); len(local) > 0 {
					if sym, ok := lookup(local); ok {
						e.Sym = sym
					}
				}
			}
			return e, streamOK
		case '"', '\'':
			k := bytes.IndexByte(data[i+1:], c)
			if k < 0 {
				return e, streamNeedMore
			}
			if bytes.IndexByte(data[i+1:i+1+k], '<') >= 0 {
				return e, streamMalformed
			}
			i += k + 2
		case '<':
			return e, streamMalformed
		default:
			i++
		}
	}
	return e, streamNeedMore
}

// classifyDirective scans a "<!DOCTYPE ...>"-style directive with the
// serial scanner's rules: quoted angle brackets ignored, nested <...>
// groups tracked by depth, comments inside skipped.
func classifyDirective(data []byte, off int) (Entry, streamStatus) {
	e := Entry{Off: off, Sym: -1, Kind: Directive}
	inquote := byte(0)
	depth := 0
	i := off + 2 // past "<!"; the first byte after is uninterpreted
	for i < len(data) {
		b := data[i]
		i++
		if inquote == 0 && b == '>' && depth == 0 {
			e.End = i
			return e, streamOK
		}
		switch {
		case b == inquote:
			inquote = 0
		case inquote != 0:
		case b == '\'' || b == '"':
			inquote = b
		case b == '>' && depth > 0:
			depth--
		case b == '<':
			if bytes.HasPrefix(data[i:], []byte("!--")) {
				k := bytes.Index(data[i+3:], []byte("-->"))
				if k < 0 {
					return e, streamNeedMore
				}
				i += 3 + k + 3
			} else {
				depth++
			}
		}
	}
	return e, streamNeedMore
}

// nameAt returns the leading XML-name byte run of b (the tag name).
func nameAt(b []byte) []byte {
	i := 0
	for i < len(b) && isNameByte(b[i]) {
		i++
	}
	return b[:i]
}

// localOf strips a single namespace prefix, mirroring scan.splitName's
// accepted shape; names it would reject return nil (Sym stays -1).
func localOf(name []byte) []byte {
	first := -1
	n := 0
	for i, c := range name {
		if c == ':' {
			if first < 0 {
				first = i
			}
			n++
		}
	}
	if n > 1 {
		return nil
	}
	if n == 1 && first > 0 && first < len(name)-1 {
		return name[first+1:]
	}
	return name
}

// isNameByte mirrors scan.isNameByte: single-byte characters allowed
// inside names, with multi-byte runes accepted permissively.
func isNameByte(c byte) bool {
	return 'A' <= c && c <= 'Z' ||
		'a' <= c && c <= 'z' ||
		'0' <= c && c <= '9' ||
		c == '_' || c == ':' || c == '.' || c == '-' ||
		c >= 0x80
}
