package scan

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"strings"
	"testing"
	"testing/iotest"
	"unicode"
	"unicode/utf8"

	"xmlproj/internal/dtd"
	"xmlproj/internal/xmark"
)

// oracleText is the scanner's earlier, byte-at-a-time text: locate the
// next special byte one byte at a time, copy the plain span into dst,
// handle the special byte, and validate the whole decoded result in a
// second pass. FuzzScanText holds the SWAR text and skipText to it.
func oracleText(s *Scanner, dst []byte, quote int, cdata bool) ([]byte, textInfo, error) {
	info := textInfo{verbatim: true}
	base := len(dst)
	var specials string
	switch {
	case cdata:
		specials = "]\r"
	case quote < 0:
		specials = "<&]\r>"
	case quote == '"':
		specials = "\"&<\r>"
	default:
		specials = "'&<\r>"
	}
loop:
	for {
		if s.pos == s.end && !s.fill() {
			if cdata {
				if !s.atEOF() {
					return dst, info, s.rerr
				}
				return dst, info, errSyntax("unexpected EOF in CDATA section")
			}
			break
		}
		chunk := s.buf[s.pos:s.end]
		j := 0
		for j < len(chunk) && strings.IndexByte(specials, chunk[j]) < 0 {
			j++
		}
		if j > 0 {
			dst = append(dst, chunk[:j]...)
			s.pos += j
			if j == len(chunk) {
				continue
			}
		}
		switch b := chunk[j]; b {
		case '<':
			if quote >= 0 {
				return dst, info, errSyntax("unescaped < inside quoted string")
			}
			break loop
		case '&':
			s.pos++
			r, err := s.decodeEntity()
			if err != nil {
				return dst, info, err
			}
			dst = utf8.AppendRune(dst, r)
			info.verbatim = false
		case '\r':
			s.pos++
			dst = append(dst, '\n')
			info.verbatim = false
			if s.pos == s.end {
				s.fill()
			}
			if s.pos < s.end && s.buf[s.pos] == '\n' {
				s.pos++
			}
		case '>':
			s.pos++
			dst = append(dst, '>')
			info.verbatim = false
		case ']':
			run := 0
			for {
				if s.pos == s.end && !s.fill() {
					break
				}
				if s.pos < s.end && s.buf[s.pos] == ']' {
					s.pos++
					run++
					dst = append(dst, ']')
					continue
				}
				break
			}
			if run >= 2 {
				if s.pos == s.end {
					s.fill()
				}
				if s.pos < s.end && s.buf[s.pos] == '>' {
					s.pos++
					if cdata {
						dst = dst[:len(dst)-2]
						break loop
					}
					return dst, info, errSyntax("unescaped ]]> not in CDATA section")
				}
			}
		default:
			s.pos++
			break loop
		}
	}
	info.ws = true
	buf := dst[base:]
	for i := 0; i < len(buf); {
		r, size := utf8.DecodeRune(buf[i:])
		if r == utf8.RuneError && size == 1 {
			return dst, info, errSyntax("invalid UTF-8")
		}
		if !isInCharacterRange(r) {
			return dst, info, errSyntax(fmt.Sprintf("illegal character code %U", r))
		}
		if info.ws && !unicode.IsSpace(r) {
			info.ws = false
		}
		i += size
	}
	return dst, info, nil
}

// textOutcome is everything a text pass decides: its verdict, its flags,
// the decoded bytes (emitting passes only) and where it left the input.
type textOutcome struct {
	ok            bool
	ws, verbatim  bool
	decoded, rest string
}

// rest drains the scanner, returning the input after its position.
func rest(s *Scanner) string {
	var b []byte
	for {
		c, ok := s.getc()
		if !ok {
			return string(b)
		}
		b = append(b, c)
	}
}

type textFunc func(s *Scanner, quote int, cdata bool) ([]byte, textInfo, error)

func runText(fn textFunc, s *Scanner, quote int, cdata bool) textOutcome {
	out, info, err := fn(s, quote, cdata)
	if err != nil {
		return textOutcome{}
	}
	return textOutcome{ok: true, ws: info.ws, verbatim: info.verbatim, decoded: string(out), rest: rest(s)}
}

var (
	oracleFn textFunc = func(s *Scanner, q int, c bool) ([]byte, textInfo, error) { return oracleText(s, nil, q, c) }
	textFn   textFunc = func(s *Scanner, q int, c bool) ([]byte, textInfo, error) { return s.text(nil, q, c) }
	skipFn   textFunc = func(s *Scanner, q int, c bool) ([]byte, textInfo, error) {
		info, err := s.skipText(q, c)
		return nil, info, err
	}
)

// checkText runs the oracle over data in mode m (0 chardata, 1 CDATA,
// 2 and 3 the two quotes) and requires text and skipText to agree with
// it over an in-memory input and over a one-byte-per-read reader, which
// splits every rune, entity, "\r\n" and "]]>" across refills.
func checkText(t *testing.T, data []byte, m uint8) {
	t.Helper()
	quote, cdata := -1, false
	switch m % 4 {
	case 1:
		cdata = true
	case 2:
		quote = '"'
	case 3:
		quote = '\''
	}
	s := NewScanner(nil)
	s.ResetBytes(data)
	want := runText(oracleFn, s, quote, cdata)
	for _, src := range []string{"bytes", "onebyte"} {
		for name, fn := range map[string]textFunc{"text": textFn, "skipText": skipFn} {
			if src == "bytes" {
				s.ResetBytes(data)
			} else {
				s.Reset(iotest.OneByteReader(bytes.NewReader(data)))
			}
			got := runText(fn, s, quote, cdata)
			if name == "skipText" {
				got.decoded = want.decoded
			}
			if got != want {
				t.Fatalf("%s over %s, mode %d: got %+v, oracle %+v\ninput: %q", name, src, m%4, got, want, data)
			}
		}
	}
}

func FuzzScanText(f *testing.F) {
	for _, seed := range []string{
		"", "plain text", "  \t\n ", "a&amp;b&lt;c&#65;&#x42;", "&#32;&#160; \u0085　",
		"line\r\nbreak\rx\r", "x]]>y", "]]]>", "]]", "a]b]]c", "<tail", `he said "hi" & 'bye'`,
		"\x01", "\x7f\x08\x0b", "\xff\xfe", "&#0;", "&bogus;", "&amp", "&#xD800;", "&#xFFFE;", "&#1114112;",
		"1234567é12345€1234😀", "é€😀 ", "abcdefg\xe2\x82", "tab\there>gt", strings.Repeat("0123456789", 5) + "<",
	} {
		for m := uint8(0); m < 4; m++ {
			f.Add([]byte(seed), m)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, m uint8) {
		checkText(t, data, m)
	})
}

// TestPlainClassifiesEveryByte: for every byte value at every lane, the
// SWAR scan stops exactly where a byte-wise reading of the class says.
func TestPlainClassifiesEveryByte(t *testing.T) {
	classes := map[string]*textClass{"chardata": charDataClass, "cdata": cdataClass, "quot": quotClass, "apos": aposClass}
	specials := map[string]string{"chardata": "<&]>", "cdata": "]", "quot": `"&<>`, "apos": `'&<>`}
	for name, c := range classes {
		for v := 0; v < 256; v++ {
			b := byte(v)
			stop := b >= 0x80 || b < 0x20 && b != '\t' && b != '\n' || strings.IndexByte(specials[name], b) >= 0
			for lane := 0; lane < 11; lane++ {
				p := []byte(strings.Repeat("a", lane) + string([]byte{b}) + "bcd")
				n, ws := c.plain(p, true)
				want := len(p)
				if stop {
					want = lane
				}
				if n != want {
					t.Fatalf("%s: byte %#x at lane %d: plain stopped at %d, want %d", name, b, lane, n, want)
				}
				if ws != (lane == 0 && stop) {
					t.Fatalf("%s: byte %#x at lane %d: ws=%v", name, b, lane, ws)
				}
			}
			p := []byte(strings.Repeat(" ", 9) + string([]byte{b}))
			if _, ws := c.plain(p, true); ws != (stop || b == ' ' || b == '\t' || b == '\n') {
				t.Fatalf("%s: whitespace run ending in %#x: ws=%v", name, b, ws)
			}
		}
	}
}

// TestSkippedTextKeepsScratchSmall: a long discarded text run — inside a
// skipped subtree or attribute value, or the dropped text of a kept
// element — is validated in place, so it grows no pooled scratch
// buffer; and a streamed skipped subtree holds no buffer mark, so it
// needs no buffer growth either, whether its root has attributes or not.
func TestSkippedTextKeepsScratchSmall(t *testing.T) {
	const limit = 64 << 10
	d := xmark.DTD()
	proj := d.CompileProjection(dtd.NewNameSet("site", "regions"))
	// Longer than DefaultMaxTokenSize, so a streamed run that had to stay
	// buffered would fail instead of passing.
	run := bytes.Repeat([]byte("skipped text "), (DefaultMaxTokenSize+1<<20)/13)
	cases := []struct{ name, head, tail string }{
		{"skipped subtree", `<site><regions/><categories>`, `</categories></site>`},
		{"skipped attr'd root", `<site><regions/><categories x="1">`, `</categories></site>`},
		{"dropped text of kept", `<site>`, `<regions/></site>`},
		{"skipped attr value", `<site><regions/><categories x="`, `"/></site>`},
	}
	for _, tc := range cases {
		doc := append(append([]byte(tc.head), run...), tc.tail...)
		for _, streamed := range []bool{false, true} {
			if streamed && tc.name == "dropped text of kept" {
				// A kept element's text chunk is one token, held in the
				// buffer while it is scanned: this one exceeds the cap.
				continue
			}
			pr := &pruner{s: NewScanner(nil)}
			if streamed {
				pr.s.Reset(bytes.NewReader(doc))
			} else {
				pr.s.ResetBytes(doc)
			}
			pr.prep(d, proj, Options{})
			pr.useDiscard()
			if err := pr.run(); err != nil {
				t.Fatalf("%s (streamed=%v): %v", tc.name, streamed, err)
			}
			if cap(pr.attrVal) > limit || cap(pr.textBuf) > limit {
				t.Errorf("%s (streamed=%v): scratch grew to attrVal %d, textBuf %d bytes", tc.name, streamed, cap(pr.attrVal), cap(pr.textBuf))
			}
			if streamed && len(pr.s.buf) > defaultBufSize {
				t.Errorf("%s: streamed buffer grew to %d bytes", tc.name, len(pr.s.buf))
			}
		}
	}
}

// TestCheckNameMemoisesRunes: non-ASCII names cost encoding/xml probes
// per distinct rune and position class, not per distinct name; the memo
// is per input; and every verdict equals encoding/xml's own.
func TestCheckNameMemoisesRunes(t *testing.T) {
	runes := []rune("éàüßçñøåæœ")
	var b strings.Builder
	b.WriteString("<bib><book>")
	names := 0
	for i := range runes {
		for j := range runes {
			for k := 0; k < 30; k++ {
				fmt.Fprintf(&b, "<%c%c%d/>", runes[i], runes[j], k)
				names++
			}
		}
	}
	b.WriteString("</book></bib>")
	d, p := setup(t, dtd.NewNameSet("bib"))
	pr := &pruner{s: NewScanner(nil)}
	pr.s.ResetBytes([]byte(b.String()))
	pr.prep(d, p, Options{})
	pr.useDiscard()
	if err := pr.run(); err != nil {
		t.Fatal(err)
	}
	if pr.st.ElementsSkipped != int64(names) { // the discarded root <book> is not counted
		t.Fatalf("skipped %d elements, want %d", pr.st.ElementsSkipped, names)
	}
	if probes := pr.s.nameProbes; probes > 2*len(runes) {
		t.Fatalf("%d decoder probes for %d distinct runes in %d distinct names", probes, len(runes), names)
	}
	pr.s.Reset(nil)
	if len(pr.s.nameRunes) != 0 {
		t.Fatalf("Reset kept %d memoised runes", len(pr.s.nameRunes))
	}

	s := NewScanner(nil)
	for _, name := range []string{"é", "aé", "·", "a·", "×", "a×", "\u0300", "a\u0300", "中文", "_é:x", "a\xff", "\xe2\x82", "a\ufffd", "\U00010000", "a\U000E01EF"} {
		_, err := xml.NewDecoder(strings.NewReader("<" + name + "/>")).Token()
		if got, want := s.checkName([]byte(name)), err == nil; got != want {
			t.Errorf("checkName(%q) = %v, encoding/xml says %v", name, got, want)
		}
	}
}
