// Package scan is a byte-level streaming XML scanner purpose-built for
// type-based projection (§6 of the paper: pruning fused with parsing).
// Unlike encoding/xml it materialises nothing: tags, attributes and text
// are handled as sub-slices of an internal sliding read buffer, element
// tags resolve through a byte-keyed symbol table, and projector
// membership is a dense flag array lookup. Subtrees outside π are
// discarded by a validate-only skip scan that never builds tokens, and
// subtrees whose reachable closure is inside π can be copied to the
// output as verbatim byte spans.
//
// The scanner mirrors encoding/xml's strict-mode tokenizer behaviour
// byte for byte (entity rules, \r normalisation, character validation,
// "]]>" rejection, directive nesting), so the two pruning paths accept
// the same documents and produce identical output; the differential
// tests in internal/prune hold it to that.
package scan

import (
	"encoding/xml"
	"fmt"
	"io"
	"strings"
	"unicode"
	"unicode/utf8"
)

// defaultBufSize is the initial sliding-buffer size. The buffer grows
// only when a single token (one text chunk, one tag) exceeds it, so
// memory stays proportional to token size, not document size.
const defaultBufSize = 64 << 10

// DefaultMaxTokenSize bounds the sliding buffer's growth when the
// caller does not set a limit: a single token (one tag, one text chunk,
// one attribute value) larger than this fails with ErrTokenTooLong
// instead of growing the buffer without bound on hostile input.
const DefaultMaxTokenSize = 8 << 20

// ErrTokenTooLong reports that a single token exceeded the scanner's
// maximum token size.
var ErrTokenTooLong = fmt.Errorf("xml token exceeds the scanner's maximum token size")

// Scanner is the low-level byte source: a sliding buffer over an
// io.Reader with mark-based span retention, plus the tokenization
// primitives shared by the emitting pruner and the skip scanner.
type Scanner struct {
	r        io.Reader
	buf      []byte
	pos      int // next unread byte
	end      int // buf[pos:end] holds valid data
	mark     int // earliest byte that must survive a refill; -1 when none
	rerr     error
	maxToken int // buffer growth cap; 0 means DefaultMaxTokenSize

	// ownBuf preserves the scanner-owned buffer across ResetBytes (which
	// aliases buf to caller data) so Reset can restore it.
	ownBuf []byte

	// nameRunes memoises checkName's verdicts on non-ASCII runes, keyed
	// by rune<<1 | first (the position class); nameProbes counts the
	// encoding/xml probes behind them. The memo is per input: Reset and
	// ResetBytes clear it.
	nameRunes  map[rune]bool
	nameProbes int
}

// NewScanner returns a scanner reading from r.
func NewScanner(r io.Reader) *Scanner {
	return &Scanner{r: r, buf: make([]byte, defaultBufSize), mark: -1}
}

// Reset reuses the scanner (and its buffer) for a new input.
func (s *Scanner) Reset(r io.Reader) {
	if s.ownBuf != nil {
		s.buf, s.ownBuf = s.ownBuf, nil
	}
	s.r = r
	s.pos, s.end = 0, 0
	s.mark = -1
	s.rerr = nil
	clear(s.nameRunes)
}

// ResetBytes reuses the scanner over an in-memory input without
// copying: the buffer aliases data and the read error is preset to
// io.EOF, so fill never compacts, grows, or reads — every mark-based
// span is a direct view into data. The caller must not mutate data
// while the scanner is in use; Reset restores the scanner-owned buffer.
func (s *Scanner) ResetBytes(data []byte) {
	if s.ownBuf == nil {
		s.ownBuf = s.buf
	}
	s.r = nil
	s.buf = data
	s.pos, s.end = 0, len(data)
	s.mark = -1
	s.rerr = io.EOF
	clear(s.nameRunes)
}

// ResetBytesAt is ResetBytes restricted to the window data[lo:hi]:
// scanning starts at lo and input ends at hi, while positions — and
// therefore the spans a gather emitter records — remain absolute
// offsets into data. Parallel fragment workers use it so their gather
// lists splice into the spine by plain concatenation, no rebasing.
func (s *Scanner) ResetBytesAt(data []byte, lo, hi int) {
	s.ResetBytes(data[:hi])
	s.pos = lo
}

// SetMaxTokenSize bounds the buffer growth a single token may force;
// n <= 0 restores DefaultMaxTokenSize. Tokens already fitting the
// current buffer are unaffected.
func (s *Scanner) SetMaxTokenSize(n int) { s.maxToken = n }

// Peek returns up to n buffered bytes without consuming them.
func (s *Scanner) Peek(n int) []byte {
	for s.end-s.pos < n && s.fill() {
	}
	if s.end-s.pos < n {
		n = s.end - s.pos
	}
	return s.buf[s.pos : s.pos+n]
}

// fill reads more data, compacting the buffer from the mark (or the
// read position) first. Returns false when no byte was added.
func (s *Scanner) fill() bool {
	if s.rerr != nil {
		return false
	}
	base := s.pos
	if s.mark >= 0 && s.mark < base {
		base = s.mark
	}
	if base > 0 {
		copy(s.buf, s.buf[base:s.end])
		s.pos -= base
		s.end -= base
		if s.mark >= 0 {
			s.mark -= base
		}
	} else if s.end == len(s.buf) {
		// A single token larger than the buffer: grow, up to the
		// configured cap — hostile input must not take memory hostage.
		max := s.maxToken
		if max <= 0 {
			max = DefaultMaxTokenSize
		}
		if len(s.buf) >= max {
			s.rerr = fmt.Errorf("%w (%d bytes)", ErrTokenTooLong, max)
			return false
		}
		n := 2 * len(s.buf)
		if n > max {
			n = max
		}
		nb := make([]byte, n)
		copy(nb, s.buf[:s.end])
		s.buf = nb
	}
	// io.Reader permits (0, nil); bound the retries so a pathological
	// reader errors instead of hanging the prune (as bufio does).
	for i := 0; i < 100; i++ {
		n, err := s.r.Read(s.buf[s.end:len(s.buf):len(s.buf)])
		s.end += n
		if err != nil {
			s.rerr = err
			return n > 0
		}
		if n > 0 {
			return true
		}
	}
	s.rerr = io.ErrNoProgress
	return false
}

// getc returns the next byte. ok is false at end of input or on a read
// error; the caller distinguishes via readErr.
func (s *Scanner) getc() (byte, bool) {
	if s.pos < s.end {
		b := s.buf[s.pos]
		s.pos++
		return b, true
	}
	if s.fill() {
		b := s.buf[s.pos]
		s.pos++
		return b, true
	}
	return 0, false
}

// ungetc backs up one byte. Valid immediately after a successful getc.
func (s *Scanner) ungetc() { s.pos-- }

// readErr converts the pending read error for a caller that needed more
// input: io.EOF mid-construct becomes a syntax error, like
// encoding/xml's mustgetc.
func (s *Scanner) readErr() error {
	if s.rerr == io.EOF || s.rerr == nil {
		return errSyntax("unexpected EOF")
	}
	return s.rerr
}

// atEOF reports whether input ended cleanly.
func (s *Scanner) atEOF() bool { return s.rerr == io.EOF }

// setMark pins the current position: bytes from here on survive
// refills, so spans relative to the mark stay valid.
func (s *Scanner) setMark() { s.mark = s.pos }

// clearMark releases the pin.
func (s *Scanner) clearMark() { s.mark = -1 }

// marked returns the span from the mark to the current position.
func (s *Scanner) marked() []byte { return s.buf[s.mark:s.pos] }

// errSyntax builds a syntax error. The message format intentionally
// resembles encoding/xml's so operators see familiar diagnostics, but
// the differential contract only requires that the two paths agree on
// *whether* an input errors, not on the message.
func errSyntax(msg string) error { return fmt.Errorf("XML syntax error: %s", msg) }

// space skips the tag-level whitespace set (space, CR, LF, tab) —
// exactly encoding/xml's space(), which is narrower than Unicode
// whitespace.
func (s *Scanner) space() {
	for {
		for ; s.pos < s.end; s.pos++ {
			if b := s.buf[s.pos]; b != ' ' && b != '\r' && b != '\n' && b != '\t' {
				return
			}
		}
		if !s.fill() {
			return
		}
	}
}

// isNameByte mirrors encoding/xml: the single-byte characters allowed
// inside names. Multi-byte runes are accepted here and validated by
// checkName.
func isNameByte(c byte) bool {
	return 'A' <= c && c <= 'Z' ||
		'a' <= c && c <= 'z' ||
		'0' <= c && c <= '9' ||
		c == '_' || c == ':' || c == '.' || c == '-' ||
		c >= utf8.RuneSelf
}

// readName consumes a name (per encoding/xml's readName byte rules),
// scanning the buffer directly with the nameByte table. ok is false
// when no name byte is present. The scanner's buffer slides under
// refills, so callers recover the name span mark-relative: record
// rel = s.pos - s.mark before the call (with a mark already held) and
// slice s.buf[s.mark+rel : s.pos] after it.
func (s *Scanner) readName() (ok bool, err error) {
	i := s.pos
	for {
		buf := s.buf[:s.end]
		for i < len(buf) && nameByte[buf[i]] {
			i++
		}
		if i < len(buf) {
			break
		}
		// The refill keeps every byte from s.pos on, so the scan resumes
		// at the same offset from it.
		n := i - s.pos
		if !s.fill() {
			return false, s.readErr()
		}
		i = s.pos + n
	}
	if i == s.pos {
		return false, nil
	}
	s.pos = i
	return true, nil
}

// matchName consumes name if the input continues with it followed by a
// byte that cannot extend a name, and reports whether it did; on false
// nothing is consumed. Skip mode matches an end tag against the stacked
// start-tag name this way, without re-reading it byte by byte.
func (s *Scanner) matchName(name []byte) bool {
	n := len(name)
	for s.end-s.pos <= n && s.fill() {
	}
	if s.end-s.pos <= n || string(s.buf[s.pos:s.pos+n]) != string(name) || nameByte[s.buf[s.pos+n]] {
		return false
	}
	s.pos += n
	return true
}

// checkName validates a scanned name against the full XML Name
// production, the way encoding/xml's isName does. ASCII bytes are
// checked directly (tail bytes already passed isNameByte); isName tests
// each rune on its own — the first against one set, the rest against a
// wider one — so a non-ASCII rune is checked by asking encoding/xml
// itself about that rune alone, once per rune and position class.
func (s *Scanner) checkName(name []byte) bool {
	if len(name) == 0 {
		return false
	}
	if c := name[0]; c < utf8.RuneSelf && !('A' <= c && c <= 'Z' || 'a' <= c && c <= 'z' || c == '_' || c == ':') {
		return false
	}
	for i := 0; i < len(name); {
		if name[i] < utf8.RuneSelf {
			i++
			continue
		}
		r, size := utf8.DecodeRune(name[i:])
		if r == utf8.RuneError && size == 1 {
			return false
		}
		if !s.nameRune(r, i == 0) {
			return false
		}
		i += size
	}
	return true
}

// nameRune reports whether encoding/xml accepts the non-ASCII rune r as
// the first rune of a name (first) or as a later one, probing a decoder
// with "<r/>" or "<ar/>" on the first ask and memoising the verdict.
func (s *Scanner) nameRune(r rune, first bool) bool {
	key, probe := r<<1, "<a"+string(r)+"/>"
	if first {
		key, probe = key|1, "<"+string(r)+"/>"
	}
	if v, ok := s.nameRunes[key]; ok {
		return v
	}
	s.nameProbes++
	_, err := xml.NewDecoder(strings.NewReader(probe)).Token()
	if s.nameRunes == nil {
		s.nameRunes = make(map[rune]bool)
	}
	s.nameRunes[key] = err == nil
	return err == nil
}

// splitName applies encoding/xml's nsname rule to a full name: more
// than one colon is malformed; one colon with non-empty halves splits
// off the prefix; otherwise the whole name is the local name (and the
// prefix is empty, even when the name contains a colon at an edge).
func splitName(name []byte) (prefix, local []byte, ok bool) {
	first := -1
	n := 0
	for i, b := range name {
		if b == ':' {
			if first < 0 {
				first = i
			}
			n++
		}
	}
	if n > 1 {
		return nil, nil, false
	}
	if n == 1 && first > 0 && first < len(name)-1 {
		return name[:first], name[first+1:], true
	}
	return nil, name, true
}

// isXMLNSAttr reports whether a split attribute name is a namespace
// declaration, exactly as the decoder-based pruner decides it: the
// prefix is "xmlns" or the local name is "xmlns".
func isXMLNSAttr(prefix, local []byte) bool {
	return string(prefix) == "xmlns" || string(local) == "xmlns"
}

// isInCharacterRange is the XML Char production, as in encoding/xml.
func isInCharacterRange(r rune) bool {
	return r == 0x09 ||
		r == 0x0A ||
		r == 0x0D ||
		r >= 0x20 && r <= 0xD7FF ||
		r >= 0xE000 && r <= 0xFFFD ||
		r >= 0x10000 && r <= 0x10FFFF
}

// decodeEntity consumes a character reference after its '&' and returns
// the decoded rune, mirroring encoding/xml's strict handling: the five
// predefined entities, decimal and hex character references (values
// above MaxRune rejected, surrogates replaced like string(rune)
// conversion), anything else is a syntax error.
func (s *Scanner) decodeEntity() (rune, error) {
	b, ok := s.getc()
	if !ok {
		return 0, s.readErr()
	}
	if b == '#' {
		base := 10
		b, ok = s.getc()
		if !ok {
			return 0, s.readErr()
		}
		if b == 'x' {
			base = 16
			b, ok = s.getc()
			if !ok {
				return 0, s.readErr()
			}
		}
		var n uint64
		digits := 0
		for {
			var v byte
			switch {
			case '0' <= b && b <= '9':
				v = b - '0'
			case base == 16 && 'a' <= b && b <= 'f':
				v = b - 'a' + 10
			case base == 16 && 'A' <= b && b <= 'F':
				v = b - 'A' + 10
			default:
				goto done
			}
			digits++
			if n <= 1<<32 { // saturate; anything this big is already invalid
				n = n*uint64(base) + uint64(v)
			}
			b, ok = s.getc()
			if !ok {
				return 0, s.readErr()
			}
		}
	done:
		if b != ';' {
			s.ungetc()
			return 0, errSyntax("invalid character entity (no semicolon)")
		}
		if digits == 0 || n > unicode.MaxRune {
			return 0, errSyntax("invalid character entity")
		}
		r := rune(n)
		if !utf8.ValidRune(r) {
			r = utf8.RuneError // string(rune) conversion semantics
		}
		return r, nil
	}
	// Named entity: collect name bytes into a small local buffer (the
	// recognised names are at most four bytes; anything longer errors
	// anyway), require ';', and accept only the five predefined names —
	// custom <!ENTITY> definitions are not resolved, exactly like
	// encoding/xml with a nil Entity map in strict mode.
	var name [8]byte
	n := 0
	for isNameByte(b) {
		if n < len(name) {
			name[n] = b
			n++
		} else {
			n = len(name) + 1 // too long: cannot be predefined
		}
		b, ok = s.getc()
		if !ok {
			return 0, s.readErr()
		}
	}
	if b != ';' {
		s.ungetc()
		return 0, errSyntax("invalid character entity (no semicolon)")
	}
	if n <= len(name) {
		switch string(name[:n]) {
		case "lt":
			return '<', nil
		case "gt":
			return '>', nil
		case "amp":
			return '&', nil
		case "apos":
			return '\'', nil
		case "quot":
			return '"', nil
		}
	}
	return 0, errSyntax("invalid character entity")
}

// skipComment consumes a comment after "<!--", enforcing the strict
// "--" rule: the only legal occurrence of "--" is the closing "-->".
func (s *Scanner) skipComment() error {
	var b0, b1 byte
	for {
		b, ok := s.getc()
		if !ok {
			return s.readErr()
		}
		if b0 == '-' && b1 == '-' {
			if b != '>' {
				return errSyntax(`invalid sequence "--" not allowed in comments`)
			}
			return nil
		}
		b0, b1 = b1, b
	}
}

// skipDirective consumes a <!DOCTYPE ...>-style directive after its
// "<!" and first byte, reproducing encoding/xml's nesting rules: quoted
// angle brackets are ignored, nested "<...>" groups tracked by depth,
// and comments inside the directive skipped.
func (s *Scanner) skipDirective() error {
	inquote := byte(0)
	depth := 0
	for {
		b, ok := s.getc()
		if !ok {
			return s.readErr()
		}
		if inquote == 0 && b == '>' && depth == 0 {
			return nil
		}
	handle:
		switch {
		case b == inquote:
			inquote = 0
		case inquote != 0:
			// quoted: no special meaning
		case b == '\'' || b == '"':
			inquote = b
		case b == '>' && depth > 0:
			depth--
		case b == '<':
			// "<!--" opens a comment inside the directive; any other
			// "<" increases nesting.
			lead := [3]byte{'!', '-', '-'}
			for i := 0; i < 3; i++ {
				if b, ok = s.getc(); !ok {
					return s.readErr()
				}
				if b != lead[i] {
					depth++
					goto handle
				}
			}
			var b0, b1 byte
			for {
				if b, ok = s.getc(); !ok {
					return s.readErr()
				}
				if b0 == '-' && b1 == '-' && b == '>' {
					break
				}
				b0, b1 = b1, b
			}
		}
	}
}

// skipPI consumes a processing instruction after "<?": the target name
// is validated, and an <?xml?> declaration gets the same version and
// encoding checks as encoding/xml (no CharsetReader: any non-UTF-8
// declared encoding is an error — Stream rejects byte-order-marked
// UTF-16/32 inputs up front, and the scanner and decoder paths both
// reject declared non-UTF-8 encodings). The caller must not hold a
// mark.
func (s *Scanner) skipPI() error {
	s.setMark()
	ok, err := s.readName()
	if err != nil {
		s.clearMark()
		return err
	}
	if !ok || !s.checkName(s.marked()) {
		s.clearMark()
		return errSyntax("expected target name after <?")
	}
	isXMLDecl := string(s.marked()) == "xml"
	s.space()
	if !isXMLDecl {
		s.clearMark()
		var b0 byte
		for {
			b, got := s.getc()
			if !got {
				return s.readErr()
			}
			if b0 == '?' && b == '>' {
				return nil
			}
			b0 = b
		}
	}
	contentRel := s.pos - s.mark
	var b0 byte
	for {
		b, got := s.getc()
		if !got {
			s.clearMark()
			return s.readErr()
		}
		if b0 == '?' && b == '>' {
			break
		}
		b0 = b
	}
	content := string(s.buf[s.mark+contentRel : s.pos-2])
	s.clearMark()
	if ver := procInstParam("version", content); ver != "" && ver != "1.0" {
		return fmt.Errorf("xml: unsupported version %q; only version 1.0 is supported", ver)
	}
	if enc := procInstParam("encoding", content); enc != "" && !strings.EqualFold(enc, "utf-8") {
		return fmt.Errorf("xml: encoding %q declared but the input is not UTF-8", enc)
	}
	return nil
}

// procInstParam extracts a param="..." value from an <?xml?>
// declaration, as encoding/xml's procInst does.
func procInstParam(param, s string) string {
	param = param + "="
	lenp := len(param)
	i := 0
	var sep byte
	for i < len(s) {
		sub := s[i:]
		k := strings.Index(sub, param)
		if k < 0 || lenp+k >= len(sub) {
			return ""
		}
		i += lenp + k + 1
		if c := sub[lenp+k]; c == '\'' || c == '"' {
			sep = c
			break
		}
	}
	if sep == 0 {
		return ""
	}
	j := strings.IndexByte(s[i:], sep)
	if j < 0 {
		return ""
	}
	return s[i : i+j]
}

// textInfo describes a decoded text chunk.
type textInfo struct {
	// ws is true when every decoded rune is Unicode whitespace (the
	// pruner drops such chunks, like the tree parser's TrimSpace test).
	ws bool
	// verbatim is true when the chunk's raw input bytes are already in
	// canonical output form: no entity was decoded, no \r was
	// normalised, and no '>' occurs (the escaper would rewrite it).
	// Raw-copy windows may pass such chunks through untouched.
	verbatim bool
}

// expectCDATA consumes the "[CDATA[" tail after "<![".
func (s *Scanner) expectCDATA() error {
	const tail = "CDATA["
	for i := 0; i < len(tail); i++ {
		b, ok := s.getc()
		if !ok {
			return s.readErr()
		}
		if b != tail[i] {
			return errSyntax("invalid <![ sequence")
		}
	}
	return nil
}
