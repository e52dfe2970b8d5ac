package scan

// SWAR ("SIMD within a register") character classification: character
// data is classified eight bytes per step inside a plain uint64, so the
// scanner can validate text in place — discarded text is never copied,
// kept text is copied once, in bulk, while it is being validated.
//
// Every lane computation below works on the low seven bits of each byte
// (w & lo7), where a per-lane addition of a constant up to 0x7F cannot
// carry into the next lane; the result of a lane test lands in the
// lane's high bit. Bytes with their own high bit set (non-ASCII) are
// always stop bytes and go to the rune path, so the low-seven-bit view
// never has to be right for them.

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"unicode"
	"unicode/utf8"
)

const (
	lo7 = 0x7f7f7f7f7f7f7f7f
	hi1 = 0x8080808080808080
	// spaces pads a short tail to a full word: a space is a plain
	// whitespace byte in every class, so padding never stops a scan nor
	// changes its whitespace verdict.
	spaces = 0x2020202020202020
)

// textClass is the set of bytes one character-data context must stop
// at on top of the ones every context stops at (non-ASCII bytes and
// control bytes other than tab and newline — '\r' included, since it
// is normalised): up to four special bytes, each broadcast to all eight
// lanes; unused slots repeat a used one.
type textClass struct {
	s0, s1, s2, s3 uint64
}

func newTextClass(specials string) *textClass {
	var sp [4]uint64
	for i := range sp {
		b := specials[len(specials)-1]
		if i < len(specials) {
			b = specials[i]
		}
		sp[i] = uint64(b) * 0x0101010101010101
	}
	return &textClass{sp[0], sp[1], sp[2], sp[3]}
}

// The four character-data contexts. '>' stops element content and
// attribute values only to clear the verbatim flag (the output escaper
// rewrites it); ']' stops element content and CDATA for "]]>"; '&'
// starts an entity outside CDATA; '<' ends element content and is an
// error inside an attribute value.
var (
	charDataClass = newTextClass("<&]>")
	cdataClass    = newTextClass("]")
	quotClass     = newTextClass(`"&<>`)
	aposClass     = newTextClass(`'&<>`)
)

func classOf(quote int, cdata bool) *textClass {
	switch {
	case cdata:
		return cdataClass
	case quote < 0:
		return charDataClass
	case quote == '"':
		return quotClass
	default:
		return aposClass
	}
}

// stops returns the word's stop lanes, one high bit per lane: non-ASCII
// bytes, control bytes other than tab and newline, and the class's
// special bytes.
func (c *textClass) stops(w uint64) uint64 {
	l := w & lo7
	// A lane keeps its high bit while it is a plain byte: 0x20 or above,
	// or tab/newline (0x09 <= l < 0x0B) ...
	keep := (l + 0x6060606060606060) | (l+0x7777777777777777)&^(l+0x7575757575757575)
	// ... and equal to none of the specials (x == 0 is the only lane
	// value for which x + 0x7F leaves the high bit clear).
	x0, x1, x2, x3 := l^c.s0, l^c.s1, l^c.s2, l^c.s3
	keep &= (x0 + lo7) | x0
	keep &= (x1 + lo7) | x1
	keep &= (x2 + lo7) | x2
	keep &= (x3 + lo7) | x3
	return (w | ^keep) & hi1
}

// nonSpace returns, one high bit per lane, the ASCII lanes above 0x20.
// Below a word's first stop every lane is plain, so there the lanes it
// leaves clear are exactly the whitespace bytes tab, newline and space.
func nonSpace(w uint64) uint64 { return ((w & lo7) + 0x5f5f5f5f5f5f5f5f) & hi1 }

// plain returns the length of p's longest prefix of plain bytes of class
// c, and ws && "that prefix is all whitespace".
func (c *textClass) plain(p []byte, ws bool) (int, bool) {
	for i := 0; i < len(p); i += 8 {
		var w uint64
		if i+8 <= len(p) {
			w = binary.LittleEndian.Uint64(p[i:])
		} else {
			var tail [8]byte
			binary.LittleEndian.PutUint64(tail[:], spaces)
			copy(tail[:], p[i:])
			w = binary.LittleEndian.Uint64(tail[:])
		}
		if m := c.stops(w); m != 0 {
			return i + bits.TrailingZeros64(m)>>3, ws && nonSpace(w)&(m&-m-1) == 0
		}
		ws = ws && nonSpace(w) == 0
	}
	return len(p), ws
}

// nameByte is isNameByte as a table, for name scans straight over the
// buffer.
var nameByte = func() (t [256]bool) {
	for c := range t {
		t[c] = isNameByte(byte(c))
	}
	return t
}()

// skipText consumes and validates character data exactly like text,
// but in place: nothing is copied, and an entity reference is decoded
// only to check its rune and whether it is whitespace. Discarded text
// — skipped subtrees, skipped attribute values, text no projector keeps
// — costs one classification pass over its bytes.
func (s *Scanner) skipText(quote int, cdata bool) (textInfo, error) {
	_, info, err := s.scanText(nil, false, quote, cdata)
	return info, err
}

// text decodes character data into dst (appending) and returns the
// extended slice. quote is -1 for element content, or the quote byte
// for an attribute value; cdata selects CDATA-section rules. The
// behaviour mirrors encoding/xml's Decoder.text in strict mode:
// predefined and numeric entities, \r and \r\n normalised to \n, "]]>"
// rejected in unquoted chardata, '<' rejected inside quoted values, and
// the decoded result checked for UTF-8 validity and the XML Char range.
func (s *Scanner) text(dst []byte, quote int, cdata bool) ([]byte, textInfo, error) {
	return s.scanText(dst, true, quote, cdata)
}

// scanText is the single pass behind text and skipText. Plain runs are
// classified eight bytes per step and, when emit is set, appended to
// dst in bulk; only stop bytes are handled one at a time: a non-ASCII
// rune (decoded in place, refilling first when a read boundary split
// it), an entity, '\r', ']' runs, '>', the terminator, or an illegal
// control byte. Validation happens as bytes are consumed, so an invalid
// character is reported where it occurs; encoding/xml validates after
// decoding the whole run, which may report a later entity error
// instead — the verdict is the same either way.
func (s *Scanner) scanText(dst []byte, emit bool, quote int, cdata bool) ([]byte, textInfo, error) {
	c := classOf(quote, cdata)
	info := textInfo{ws: true, verbatim: true}
	for {
		if s.pos == s.end && !s.fill() {
			if cdata {
				if !s.atEOF() {
					return dst, info, s.rerr
				}
				return dst, info, errSyntax("unexpected EOF in CDATA section")
			}
			return dst, info, nil
		}
		chunk := s.buf[s.pos:s.end]
		n, ws := c.plain(chunk, info.ws)
		info.ws = ws
		if emit {
			dst = append(dst, chunk[:n]...)
		}
		s.pos += n
		if n == len(chunk) {
			continue
		}
		switch b := chunk[n]; {
		case b >= utf8.RuneSelf:
			// The rune path, for a whole run of non-ASCII runes.
			for s.pos < s.end && s.buf[s.pos] >= utf8.RuneSelf {
				for !utf8.FullRune(s.buf[s.pos:s.end]) && s.fill() {
				}
				r, size := utf8.DecodeRune(s.buf[s.pos:s.end])
				if r == utf8.RuneError && size == 1 {
					return dst, info, errSyntax("invalid UTF-8")
				}
				if !isInCharacterRange(r) {
					return dst, info, errSyntax(fmt.Sprintf("illegal character code %U", r))
				}
				if info.ws && !unicode.IsSpace(r) {
					info.ws = false
				}
				if emit {
					dst = append(dst, s.buf[s.pos:s.pos+size]...)
				}
				s.pos += size
			}
		case b == '<':
			if quote >= 0 {
				return dst, info, errSyntax("unescaped < inside quoted string")
			}
			return dst, info, nil // not consumed; the caller reads the tag
		case b == '&':
			s.pos++
			r, err := s.decodeEntity()
			if err != nil {
				return dst, info, err
			}
			if !isInCharacterRange(r) {
				return dst, info, errSyntax(fmt.Sprintf("illegal character code %U", r))
			}
			if info.ws && !unicode.IsSpace(r) {
				info.ws = false
			}
			if emit {
				dst = utf8.AppendRune(dst, r)
			}
			info.verbatim = false
		case b == '\r':
			s.pos++
			if emit {
				dst = append(dst, '\n')
			}
			info.verbatim = false
			// \r\n collapses to the \n already written.
			if s.pos == s.end {
				s.fill()
			}
			if s.pos < s.end && s.buf[s.pos] == '\n' {
				s.pos++
			}
		case b == '>':
			s.pos++
			if emit {
				dst = append(dst, '>')
			}
			info.ws = false
			info.verbatim = false
		case b == ']':
			// Count the whole run of ']'s, then look at the byte after it:
			// "]]>" ends a CDATA section (the last two ']'s are the
			// terminator, not content) and is illegal in plain chardata.
			run := 0
			for {
				if s.pos == s.end && !s.fill() {
					break
				}
				if s.buf[s.pos] != ']' {
					break
				}
				s.pos++
				run++
			}
			if run >= 2 {
				if s.pos == s.end {
					s.fill()
				}
				if s.pos < s.end && s.buf[s.pos] == '>' {
					s.pos++
					if !cdata {
						return dst, info, errSyntax("unescaped ]]> not in CDATA section")
					}
					if run > 2 {
						info.ws = false
						if emit {
							dst = appendBrackets(dst, run-2)
						}
					}
					return dst, info, nil
				}
			}
			info.ws = false
			if emit {
				dst = appendBrackets(dst, run)
			}
		case int(b) == quote:
			s.pos++ // the quote byte ends an attribute value
			return dst, info, nil
		default: // a control byte outside the XML Char range
			return dst, info, errSyntax(fmt.Sprintf("illegal character code %U", rune(b)))
		}
	}
}

func appendBrackets(dst []byte, n int) []byte {
	for ; n > 0; n-- {
		dst = append(dst, ']')
	}
	return dst
}
