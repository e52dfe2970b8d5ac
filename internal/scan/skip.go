package scan

// Skip-scan: when a start tag's name is not in π, the whole subtree is
// discarded. The scanner still enforces well-formedness — names,
// attribute syntax, entities, character ranges, comment and PI rules,
// end-tag matching — exactly as the decoder path does when it consumes
// the subtree token by token, but nothing is materialised: no symbol
// lookups, no attribute decisions, no output. Only the stats contract
// is maintained (ElementsSkipped and logical TextSkipped runs).

// pushSkipName records a full tag name on the skip name stack (one
// shared buffer; allocation-free in steady state).
func (pr *pruner) pushSkipName(name []byte) {
	pr.skipOffs = append(pr.skipOffs, len(pr.skipBuf))
	pr.skipBuf = append(pr.skipBuf, name...)
}

func (pr *pruner) popSkipName() {
	last := len(pr.skipOffs) - 1
	pr.skipBuf = pr.skipBuf[:pr.skipOffs[last]]
	pr.skipOffs = pr.skipOffs[:last]
}

func (pr *pruner) topSkipName() []byte {
	return pr.skipBuf[pr.skipOffs[len(pr.skipOffs)-1]:]
}

// skipAttrs consumes the rest of a start tag — attributes and the
// closing '>' or '/>' — with syntax-level checks only, reporting
// whether the element was self-closing. Attribute values are validated
// in place (skipText) and never copied.
func (pr *pruner) skipAttrs() (empty bool, err error) {
	s := pr.s
	for {
		s.space()
		b, ok := s.getc()
		if !ok {
			return false, s.readErr()
		}
		if b == '/' {
			b2, ok := s.getc()
			if !ok {
				return false, s.readErr()
			}
			if b2 != '>' {
				return false, errSyntax("expected /> in element")
			}
			return true, nil
		}
		if b == '>' {
			return false, nil
		}
		s.ungetc()
		s.setMark()
		ok, err := s.readName()
		if err != nil {
			s.clearMark()
			return false, err
		}
		if !ok {
			s.clearMark()
			return false, errSyntax("expected attribute name in element")
		}
		nm := s.marked()
		if !s.checkName(nm) {
			err := errSyntax("invalid XML name: " + string(nm))
			s.clearMark()
			return false, err
		}
		if _, _, okn := splitName(nm); !okn {
			s.clearMark()
			return false, errSyntax("expected attribute name in element")
		}
		s.clearMark()
		s.space()
		b, ok = s.getc()
		if !ok {
			return false, s.readErr()
		}
		if b != '=' {
			return false, errSyntax("attribute name without = in element")
		}
		s.space()
		qb, ok := s.getc()
		if !ok {
			return false, s.readErr()
		}
		if qb != '"' && qb != '\'' {
			return false, errSyntax("unquoted or missing attribute value in element")
		}
		if _, err := s.skipText(int(qb), false); err != nil {
			return false, err
		}
	}
}

// skipScan consumes the content and end tags of the discarded elements
// whose names sit on the skip name stack, counting skipped elements and
// logical text runs. Depth-only scanning with full well-formedness
// checks; memory stays constant, and text is validated in place. Depth
// is the name stack itself (len(pr.skipOffs)), so a modePipe window
// boundary can pause the scan (errPause) and the pipelined spine can
// resume it on the next window with nothing but the pruner's own state.
//
// In modeSkipRange the scan covers one delegated range inside a
// discarded subtree instead: it starts with an empty stack and ends at
// the end of the range, not at the subtree's end tag. The indexer's
// verified structure guarantees the range holds complete, balanced
// constructs, so no end tag there can close an element opened outside
// it.
func (pr *pruner) skipScan() error {
	s := pr.s
	flush := func() {
		if pr.skipPending {
			pr.st.TextIn++
			pr.st.TextSkipped++
			pr.skipPending = false
		}
	}
	for len(pr.skipOffs) > 0 || pr.mode == modeSkipRange {
		if pr.sp != nil && pr.sp.at(s.pos) {
			// A delegated range inside this skipped subtree. The range
			// starts at an element tag, where this loop would flush.
			flush()
			if err := pr.applySkipSplice(); err != nil {
				return err
			}
			continue
		}
		b, ok := s.getc()
		if !ok {
			if s.atEOF() {
				switch pr.mode {
				case modePipe:
					// Non-final window exhausted at a construct boundary;
					// the next window resumes here.
					return errPause
				case modeSkipRange:
					// The byte after the range is an element tag, where
					// the scan would flush the pending run.
					flush()
					if len(pr.skipOffs) != 0 {
						return errSyntax("unterminated element in skipped content")
					}
					return nil
				}
			}
			return s.readErr()
		}
		if b != '<' {
			s.ungetc()
			info, err := s.skipText(-1, false)
			if err != nil {
				return err
			}
			if !info.ws {
				pr.skipPending = true
			}
			continue
		}
		b2, ok := s.getc()
		if !ok {
			return s.readErr()
		}
		switch b2 {
		case '/':
			flush()
			if err := pr.skipEndTag(); err != nil {
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
				info, err := s.skipText(-1, true)
				if err != nil {
					return err
				}
				if !info.ws {
					pr.skipPending = true
				}
			default:
				if err := s.skipDirective(); err != nil {
					return err
				}
			}
		default:
			flush()
			pr.st.ElementsIn++
			pr.st.ElementsSkipped++
			s.ungetc()
			s.setMark()
			ok, err := s.readName()
			if err != nil {
				s.clearMark()
				return err
			}
			if !ok {
				s.clearMark()
				return errSyntax("expected element name after <")
			}
			name := s.marked()
			if !s.checkName(name) {
				err := errSyntax("invalid XML name: " + string(name))
				s.clearMark()
				return err
			}
			if _, _, okn := splitName(name); !okn {
				s.clearMark()
				return errSyntax("expected element name after <")
			}
			pr.pushSkipName(name)
			s.clearMark()
			empty, err := pr.skipAttrs()
			if err != nil {
				return err
			}
			if empty {
				pr.popSkipName()
			}
		}
	}
	return nil
}

// skipEndTag consumes a skipped end tag after its "</" and pops the
// element it closes. The stacked start-tag name was validated when it
// was pushed, so an end tag repeating it is matched by a byte compare;
// anything else takes the full path, which re-reads and validates the
// name and reports the same error the emitting pruner would.
func (pr *pruner) skipEndTag() error {
	s := pr.s
	if len(pr.skipOffs) > 0 && s.matchName(pr.topSkipName()) {
		s.space()
		b, ok := s.getc()
		if !ok {
			return s.readErr()
		}
		if b != '>' {
			return errSyntax("invalid characters between </" + string(pr.topSkipName()) + " and >")
		}
		pr.popSkipName()
		return nil
	}
	s.setMark()
	defer s.clearMark()
	ok, err := s.readName()
	if err != nil {
		return err
	}
	if !ok {
		return errSyntax("expected element name after </")
	}
	nameEnd := s.pos - s.mark
	s.space()
	b, ok := s.getc()
	if !ok {
		return s.readErr()
	}
	if b != '>' {
		return errSyntax("invalid characters between </" + string(s.buf[s.mark:s.mark+nameEnd]) + " and >")
	}
	name := s.buf[s.mark : s.mark+nameEnd]
	if !s.checkName(name) {
		return errSyntax("invalid XML name: " + string(name))
	}
	if _, _, okn := splitName(name); !okn {
		return errSyntax("expected element name after </")
	}
	if len(pr.skipOffs) == 0 {
		return errSyntax("unbalanced end element " + string(name))
	}
	if string(name) != string(pr.topSkipName()) {
		return errSyntax("element <" + string(pr.topSkipName()) + "> closed by </" + string(name) + ">")
	}
	pr.popSkipName()
	return nil
}
