package scan

import (
	"bufio"
	"io"
	"strings"
	"testing"
	"testing/iotest"

	"xmlproj/internal/dtd"
)

const bibDTD = `
<!ELEMENT bib (book*)>
<!ELEMENT book (title, author+, year?)>
<!ATTLIST book isbn CDATA #REQUIRED lang (en|fr|it) "en">
<!ELEMENT title (#PCDATA)>
<!ELEMENT author (#PCDATA)>
<!ELEMENT year (#PCDATA)>
`

func setup(t *testing.T, pi dtd.NameSet) (*dtd.DTD, *dtd.Projection) {
	t.Helper()
	d, err := dtd.ParseString(bibDTD, "")
	if err != nil {
		t.Fatal(err)
	}
	return d, d.CompileProjection(pi)
}

func prune(t *testing.T, src string, d *dtd.DTD, p *dtd.Projection, opts Options) (string, Stats, error) {
	t.Helper()
	var sb strings.Builder
	bw := bufio.NewWriter(&sb)
	st, err := Prune(bw, strings.NewReader(src), d, p, opts)
	if err == nil {
		err = bw.Flush()
	}
	return sb.String(), st, err
}

var fullPi = dtd.NewNameSet(
	"bib", "book", "title", "title#text", "author", "author#text",
	"year", "year#text", "book@isbn", "book@lang",
)

// TestRawCopyMatchesSlowPath: for a π whose closure is closed (raw-copy
// eligible), output with RawCopy on and off must be identical.
func TestRawCopyMatchesSlowPath(t *testing.T) {
	d, p := setup(t, fullPi)
	docs := []string{
		`<bib><book isbn="1" lang="it"><title>T</title><author>A</author><year>1999</year></book></bib>`,
		`<bib><book isbn="1"><title>a&amp;b</title><author>A</author></book></bib>`,
		`<bib><book isbn="1"><title><![CDATA[<x>]]></title><author>A</author></book></bib>`,
		`<bib><book isbn="1"><title>t</title><!-- c --><author>A</author></book></bib>`,
		"<bib>\n <book isbn=\"1\">\n  <title>T</title><author>A</author>\n </book>\n</bib>",
		`<bib><book  isbn="1" ><title>T</title><author>A</author></book></bib>`,
		`<bib><book isbn='1'><title>T</title><author>A</author></book></bib>`,
	}
	for _, doc := range docs {
		slow, sst, serr := prune(t, doc, d, p, Options{})
		fast, fst, ferr := prune(t, doc, d, p, Options{RawCopy: true})
		if serr != nil || ferr != nil {
			t.Fatalf("prune failed: %v / %v (input %q)", serr, ferr, doc)
		}
		if slow != fast {
			t.Errorf("raw copy diverges\nslow: %q\nfast: %q\ninput: %q", slow, fast, doc)
		}
		if sst != fst {
			t.Errorf("raw copy stats diverge: %+v vs %+v (input %q)", sst, fst, doc)
		}
	}
}

// TestRawCopyEmptyElement: <a></a> must collapse to <a/> even when the
// bytes ride through a raw-copy window.
func TestRawCopyEmptyElement(t *testing.T) {
	d, p := setup(t, fullPi)
	out, _, err := prune(t, `<bib><book isbn="1"><title></title><author>A</author></book></bib>`, d, p, Options{RawCopy: true})
	if err != nil {
		t.Fatal(err)
	}
	want := `<bib><book isbn="1"><title/><author>A</author></book></bib>`
	if out != want {
		t.Fatalf("got %q, want %q", out, want)
	}
}

// TestRawCopyWindowSlides: a verbatim subtree much larger than the
// window flush size must stream through unchanged.
func TestRawCopyWindowSlides(t *testing.T) {
	d, p := setup(t, fullPi)
	var b strings.Builder
	b.WriteString(`<bib>`)
	for i := 0; i < 2000; i++ {
		b.WriteString(`<book isbn="1" lang="en"><title>title title title title</title><author>somebody</author></book>`)
	}
	b.WriteString(`</bib>`)
	doc := b.String()
	if len(doc) < 4*windowFlushSize {
		t.Fatalf("test document too small to exercise sliding: %d bytes", len(doc))
	}
	out, st, err := prune(t, doc, d, p, Options{RawCopy: true})
	if err != nil {
		t.Fatal(err)
	}
	if out != doc {
		t.Fatal("identity projection altered the document")
	}
	if st.ElementsIn != 1+2000*3 || st.ElementsOut != st.ElementsIn {
		t.Fatalf("bad stats: %+v", st)
	}
}

// TestSkipScanStats: subtree skipping keeps the ElementsSkipped /
// TextSkipped contract (root of the skipped subtree is not "skipped").
func TestSkipScanStats(t *testing.T) {
	pi := dtd.NewNameSet("bib", "book", "title", "title#text", "book@isbn")
	d, p := setup(t, pi)
	doc := `<bib><book isbn="1"><title>T</title><author>Deep<!-- c -->Name</author><year>1999</year></book></bib>`
	out, st, err := prune(t, doc, d, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := `<bib><book isbn="1"><title>T</title></book></bib>`
	if out != want {
		t.Fatalf("got %q, want %q", out, want)
	}
	if st.ElementsIn != 5 || st.ElementsOut != 3 || st.ElementsSkipped != 0 {
		t.Fatalf("element stats: %+v", st)
	}
	// author's run merges across the comment into one logical text node;
	// year's text is another. Both are inside skipped subtrees.
	if st.TextIn != 3 || st.TextOut != 1 || st.TextSkipped != 2 {
		t.Fatalf("text stats: %+v", st)
	}
}

// TestSkipScanNested: skipped subtrees may contain elements undeclared
// in the DTD (no symbol lookups happen inside them), but their syntax is
// still checked.
func TestSkipScanNested(t *testing.T) {
	pi := dtd.NewNameSet("bib", "book", "book@isbn")
	d, p := setup(t, pi)
	doc := `<bib><book isbn="1"><title>T<undeclared attr="v">x</undeclared></title><author>A</author></book></bib>`
	out, st, err := prune(t, doc, d, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if out != `<bib><book isbn="1"/></bib>` {
		t.Fatalf("got %q", out)
	}
	if st.ElementsSkipped != 1 || st.ElementsIn != 5 {
		t.Fatalf("stats: %+v", st)
	}
	if _, _, err := prune(t, `<bib><book isbn="1"><title><bad</title><author>A</author></book></bib>`, d, p, Options{}); err == nil {
		t.Fatal("syntax error inside skipped subtree not detected")
	}
	if _, _, err := prune(t, `<bib><book isbn="1"><title><a>x</b></title><author>A</author></book></bib>`, d, p, Options{}); err == nil {
		t.Fatal("mismatched end tag inside skipped subtree not detected")
	}
}

// TestValidateErrors exercises the validating scanner's error paths.
func TestValidateErrors(t *testing.T) {
	d, p := setup(t, fullPi)
	cases := []string{
		`<book isbn="1"><title>T</title><author>A</author></book>`,                      // wrong root
		`<bib><book><title>T</title><author>A</author></book></bib>`,                    // missing required attr
		`<bib><book isbn="1" lang="xx"><title>T</title><author>A</author></book></bib>`, // enum violation
		`<bib><book isbn="1" bogus="1"><title>T</title><author>A</author></book></bib>`, // undeclared attr
		`<bib><book isbn="1"><author>A</author></book></bib>`,                           // content model violation
		`<bib>text</bib>`, // text not allowed
	}
	for _, src := range cases {
		if _, _, err := prune(t, src, d, p, Options{Validate: true}); err == nil {
			t.Errorf("validation accepted %q", src)
		}
	}
}

// TestScannerBufferBoundaries drives tiny reads so tokens straddle
// buffer refills and the mark-relative span recovery is exercised.
func TestScannerBufferBoundaries(t *testing.T) {
	d, p := setup(t, fullPi)
	doc := `<bib><book isbn="12345678901234567890"><title>` +
		strings.Repeat("long text ", 50) + `&amp;</title><author>A</author></book></bib>`
	var sb strings.Builder
	bw := bufio.NewWriter(&sb)
	s := NewScanner(iotest.OneByteReader(strings.NewReader(doc)))
	pr := &pruner{s: s, d: d, p: p, opts: Options{RawCopy: true}}
	pr.useStream(bw)
	if err := pr.run(); err != nil {
		t.Fatal(err)
	}
	bw.Flush()
	want, _, err := prune(t, doc, d, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sb.String() != want {
		t.Fatalf("one-byte reads diverge:\n%q\n%q", sb.String(), want)
	}
}

// noProgressReader returns (0, nil) forever after its content runs out,
// which io.Reader permits; the scanner must error rather than spin.
type noProgressReader struct{ r *strings.Reader }

func (n noProgressReader) Read(p []byte) (int, error) {
	if n.r.Len() == 0 {
		return 0, nil
	}
	return n.r.Read(p)
}

func TestNoProgressReaderErrors(t *testing.T) {
	d, p := setup(t, fullPi)
	var sb strings.Builder
	bw := bufio.NewWriter(&sb)
	s := NewScanner(noProgressReader{strings.NewReader(`<bib><book isbn="1">`)})
	pr := &pruner{s: s, d: d, p: p, opts: Options{}}
	pr.useStream(bw)
	err := pr.run()
	if err != io.ErrNoProgress {
		t.Fatalf("want io.ErrNoProgress, got %v", err)
	}
}

// TestSkipEndTagMessages: a skipped end tag that only shares a prefix
// with the open element's name fails the byte compare and reports the
// full path's message, in both directions, and whitespace before '>'
// still matches.
func TestSkipEndTagMessages(t *testing.T) {
	d, p := setup(t, dtd.NewNameSet("bib"))
	cases := map[string]string{
		`<bib><book><title>t</titlex></book></bib>`:  "element <title> closed by </titlex>",
		`<bib><book><titlex>t</title></book></bib>`:  "element <titlex> closed by </title>",
		`<bib><book><title>t</title x></book></bib>`: "invalid characters between </title and >",
		`<bib><book><title>t</title ></book></bib>`:  "",
	}
	for doc, want := range cases {
		_, _, err := prune(t, doc, d, p, Options{})
		if want == "" {
			if err != nil {
				t.Errorf("%s: %v", doc, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: got %v, want %q", doc, err, want)
		}
	}
}
