package scan

import (
	"bufio"
	"errors"
	"fmt"
	"strings"
	"testing"

	"xmlproj/internal/dtd"
)

const siteDTD = `
<!ELEMENT site (regions, people?)>
<!ELEMENT regions (item*)>
<!ELEMENT item (name, note*, item*)>
<!ATTLIST item id CDATA #REQUIRED featured (yes|no) "no">
<!ELEMENT name (#PCDATA)>
<!ELEMENT note (#PCDATA)>
<!ELEMENT people (person*)>
<!ELEMENT person (name)>
<!ATTLIST person id CDATA #REQUIRED>
`

func setupSite(t *testing.T, pi dtd.NameSet) (*dtd.DTD, *dtd.Projection) {
	t.Helper()
	d, err := dtd.ParseString(siteDTD, "")
	if err != nil {
		t.Fatal(err)
	}
	return d, d.CompileProjection(pi)
}

// genSite builds a document with one dominant subtree (regions) holding
// nested items, plus a small people section — the shape that forces the
// planner to recurse rather than cut flat at depth 1.
func genSite(items, depth int) string {
	var b strings.Builder
	b.WriteString("<?xml version=\"1.0\"?>\n<!-- corpus -->\n<site><regions>")
	var item func(id, d int)
	item = func(id, d int) {
		fmt.Fprintf(&b, `<item id="i%d"><name>item %d &amp; co</name>`, id, id)
		b.WriteString(`<note>plain note</note><note><![CDATA[raw <note>]]></note>`)
		if d > 0 {
			item(id*10+1, d-1)
			item(id*10+2, d-1)
		}
		b.WriteString(`</item>`)
	}
	for i := 0; i < items; i++ {
		item(i+1, depth)
	}
	b.WriteString(`</regions><people>`)
	for i := 0; i < 5; i++ {
		fmt.Fprintf(&b, `<person id="p%d"><name>person %d</name></person>`, i, i)
	}
	b.WriteString(`</people></site>`)
	return b.String()
}

// pruneParallelStr runs the resident source into a bufio.Writer and,
// with the same options, into a span-gather list, and requires the two
// outputs to agree on verdict, bytes and stats.
func pruneParallelStr(t *testing.T, src string, d *dtd.DTD, p *dtd.Projection, popts PipelineOptions) (string, Stats, PipelineDetail, error) {
	t.Helper()
	var sb strings.Builder
	bw := bufio.NewWriter(&sb)
	st, det, err := PruneParallel(bw, []byte(src), d, p, popts)
	if err == nil {
		err = bw.Flush()
	}
	var sl SpanList
	gst, _, gerr := PruneParallelGather(&sl, []byte(src), d, p, popts)
	if (err == nil) != (gerr == nil) {
		t.Fatalf("gather verdict diverges: bufio=%v gather=%v", err, gerr)
	}
	if err == nil && (string(sl.Bytes()) != sb.String() || gst != st) {
		t.Fatalf("gather diverges\nbufio:  %q %+v\ngather: %q %+v", sb.String(), st, sl.Bytes(), gst)
	}
	return sb.String(), st, det, err
}

var siteProjectors = map[string]dtd.NameSet{
	"all": dtd.NewNameSet("site", "regions", "item", "item@id", "item@featured",
		"name", "name#text", "note", "note#text", "people", "person", "person@id"),
	"low": dtd.NewNameSet("site", "regions", "item", "item@id", "name", "name#text"),
	"skip-heavy": dtd.NewNameSet("site", "people", "person", "person@id",
		"name", "name#text"),
	"root-only": dtd.NewNameSet("site"),
}

// TestParallelMatchesSerial is the core differential for the resident
// source: for every projector, worker count, fragment target and
// window size — including one-byte windows, whose edges land at every
// offset, mid-tag, mid-CDATA and mid-comment — the parallel pruner's
// output, stats and verdict must be identical to the serial scanner's.
func TestParallelMatchesSerial(t *testing.T) {
	docs := map[string]string{
		"site":  genSite(4, 3),
		"small": `<site><regions><item id="1"><name>n</name></item></regions></site>`,
		"mixed": `<site><regions>` +
			`<item id="1"><name>a&lt;b</name><note>x</note><note>y</note></item>` +
			"<item id='2' featured=\"yes\"><name>n2</name>\n  <note>t</note></item>" +
			`<item id="3"><name><![CDATA[cd]]>tail</name></item>` +
			`</regions><people><person id="p"><name>who</name></person></people></site>`,
		"comments": `<site><regions><item id="1"><name>a<!-- c -->b</name>` +
			`<note>t1</note><?pi data?><note>t2</note></item></regions></site>`,
		"ws": "<site>\n  <regions>\n    <item id=\"1\">\n      <name>n</name>\n    </item>\n  </regions>\n</site>",
	}
	for pname, pi := range siteProjectors {
		d, p := setupSite(t, pi)
		for dname, doc := range docs {
			for _, validate := range []bool{false, true} {
				opts := Options{Validate: validate, RawCopy: true}
				var sb strings.Builder
				bw := bufio.NewWriter(&sb)
				sst, serr := Prune(bw, strings.NewReader(doc), d, p, opts)
				bw.Flush()
				want := sb.String()
				for _, workers := range []int{1, 2, 4, 8} {
					for _, target := range []int{1, 40, 1 << 20} {
						for _, win := range []int{1, 17, 64 << 10} {
							got, pst, det, perr := pruneParallelStr(t, doc, d, p, PipelineOptions{
								Options:    opts,
								Workers:    workers,
								WindowSize: win,
								FragTarget: target,
							})
							id := fmt.Sprintf("%s/%s validate=%v w=%d target=%d win=%d (windows=%d tasks=%d)",
								pname, dname, validate, workers, target, win, det.Windows, det.Tasks)
							if (serr == nil) != (perr == nil) {
								t.Fatalf("%s: verdict diverges: serial=%v parallel=%v", id, serr, perr)
							}
							if serr != nil {
								continue
							}
							if got != want {
								t.Fatalf("%s: output diverges\nserial:   %q\nparallel: %q", id, want, got)
							}
							if pst != sst {
								t.Fatalf("%s: stats diverge\nserial:   %+v\nparallel: %+v", id, sst, pst)
							}
						}
					}
				}
			}
		}
	}
}

// TestParallelRecursesDominantSubtree: with a tiny fragment target the
// planner must split the single dominant subtree into many tasks, not
// one per depth-1 child.
func TestParallelRecursesDominantSubtree(t *testing.T) {
	d, p := setupSite(t, siteProjectors["all"])
	doc := genSite(2, 5)
	_, _, det, err := pruneParallelStr(t, doc, d, p, PipelineOptions{
		Options: Options{RawCopy: true}, Workers: 4, FragTarget: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	if det.Tasks < 8 {
		t.Fatalf("expected recursion into the dominant subtree, got %d tasks", det.Tasks)
	}
	if det.Fallback {
		t.Fatal("unexpected serial fallback")
	}
}

// TestParallelVerdictParityOnBadDocs: malformed and invalid documents
// must be rejected (or accepted) exactly as the serial scanner decides,
// whatever the fragmentation.
func TestParallelVerdictParityOnBadDocs(t *testing.T) {
	docs := []string{
		``,
		`no xml here`,
		`<site><regions></regions>`, // unterminated root
		`<site><regions></regions></site><site></site>`, // two roots
		`<site><regions><item id="1"></wrong></item></regions></site>`,
		`<site><regions><item id="1"><name>n</name></item></regions></site>trailing`,
		`<site><regions><item id="1"><name>n</name></item></regions>text</site>`,              // text in site content
		`<region><item id="1"/></region>`,                                                     // undeclared root
		`<site><regions><item><name>n</name></item></regions></site>`,                         // missing required attr
		`<site><regions><item id="1" featured="maybe"><name>n</name></item></regions></site>`, // enum
		`<site><regions><item id="1" bogus="x"><name>n</name></item></regions></site>`,        // undeclared attr
		`<site><regions><item id="1"><note>n</note></item></regions></site>`,                  // model violation
		`<site><regions><item id="1"><name>n</name>stray</item></regions></site>`,             // text not allowed
		`<site><regions><item id="1"><name>a &unknown; b</name></item></regions></site>`,      // bad entity
		`<site><regions><item id="1"><name attr="<">n</name></item></regions></site>`,         // '<' in value
		`<site><regions><item id="1"><name>n</name><undeclared/></item></regions></site>`,
	}
	for pname, pi := range siteProjectors {
		d, p := setupSite(t, pi)
		for _, validate := range []bool{false, true} {
			opts := Options{Validate: validate, RawCopy: true}
			for i, doc := range docs {
				var sb strings.Builder
				bw := bufio.NewWriter(&sb)
				_, serr := Prune(bw, strings.NewReader(doc), d, p, opts)
				for _, target := range []int{1, 1 << 20} {
					for _, win := range []int{1, 11, 1 << 20} {
						_, _, _, perr := pruneParallelStr(t, doc, d, p, PipelineOptions{
							Options: opts, Workers: 4, WindowSize: win, FragTarget: target,
						})
						if (serr == nil) != (perr == nil) {
							t.Errorf("%s validate=%v doc %d target=%d win=%d: serial=%v parallel=%v",
								pname, validate, i, target, win, serr, perr)
						}
					}
				}
			}
		}
	}
}

// TestParallelMaxTokenSize: an oversized token fails in the indexer
// with ErrTokenTooLong — before any fragment works on it — matching the
// serial scanner's verdict, whether the token fits one window or spans
// many.
func TestParallelMaxTokenSize(t *testing.T) {
	d, p := setupSite(t, siteProjectors["all"])
	big := strings.Repeat("x", 3*windowFlushSize)
	doc := `<site><regions><item id="1"><name>` + big + `</name></item></regions></site>`
	cap := 2 * windowFlushSize
	opts := PipelineOptions{Options: Options{RawCopy: true, MaxTokenSize: cap}, Workers: 2}
	for _, win := range []int{0, 16 << 10} {
		opts.WindowSize = win
		_, _, det, err := pruneParallelStr(t, doc, d, p, opts)
		if !errors.Is(err, ErrTokenTooLong) {
			t.Fatalf("win=%d: got %v, want ErrTokenTooLong", win, err)
		}
		if det.Fallback {
			t.Fatalf("win=%d: oversized token should fail in the indexer, not fall back", win)
		}
	}
	var sb strings.Builder
	bw := bufio.NewWriter(&sb)
	_, serr := Prune(bw, strings.NewReader(doc), d, p, opts.Options)
	if !errors.Is(serr, ErrTokenTooLong) {
		t.Fatalf("serial scanner disagrees: %v", serr)
	}
	// A small-cap prune falls back to the serial scanner wholesale (the
	// streaming one: the in-memory gather fallback enforces no cap).
	smallOpts := PipelineOptions{Options: Options{MaxTokenSize: 1 << 10}, Workers: 2}
	_, det, err := PruneParallel(bufio.NewWriter(&sb), []byte(doc), d, p, smallOpts)
	if !det.Fallback {
		t.Fatal("tiny token cap must use the serial pruner")
	}
	if !errors.Is(err, ErrTokenTooLong) {
		t.Fatalf("fallback verdict: %v", err)
	}
}

// TestParallelUnindexableVerdictParity: structure the indexer cannot
// describe — '<' inside a quoted attribute value, after delegated
// ranges or before any — marks its window dead; the spine then runs the
// window itself and returns the serial scanner's exact error, with no
// fallback to a second pass.
func TestParallelUnindexableVerdictParity(t *testing.T) {
	d, p := setupSite(t, siteProjectors["all"])
	bad := `<item id="<1>"><name>n</name></item>`
	for _, doc := range []string{
		`<site><regions>` + bad + `</regions></site>`,
		`<site><regions>` + strings.Repeat(`<item id="1"><name>n</name></item>`, 20) + bad + `</regions></site>`,
	} {
		var sb strings.Builder
		bw := bufio.NewWriter(&sb)
		_, serr := Prune(bw, strings.NewReader(doc), d, p, Options{})
		if serr == nil {
			t.Fatal("serial scanner accepted a '<' in an attribute value")
		}
		for _, win := range []int{1, 7, 1 << 20} {
			_, _, det, perr := pruneParallelStr(t, doc, d, p, PipelineOptions{Workers: 2, WindowSize: win, FragTarget: 16})
			if det.Fallback {
				t.Fatalf("win=%d: unexpected serial fallback", win)
			}
			if perr == nil || perr.Error() != serr.Error() {
				t.Fatalf("win=%d: verdict diverges: serial=%v parallel=%v", win, serr, perr)
			}
		}
	}
}

// TestResetBytesRestoresOwnBuffer: after a zero-copy prune the pooled
// scanner must not pin the caller's data.
func TestResetBytesRestoresOwnBuffer(t *testing.T) {
	s := NewScanner(nil)
	own := s.buf
	data := []byte(`<a>text</a>`)
	s.ResetBytes(data)
	if &s.buf[0] != &data[0] {
		t.Fatal("ResetBytes did not alias the input")
	}
	if got := s.Peek(2); string(got) != "<a" {
		t.Fatalf("Peek over aliased data: %q", got)
	}
	s.Reset(strings.NewReader("x"))
	if len(s.buf) != len(own) || cap(s.buf) != cap(own) {
		t.Fatal("Reset did not restore the scanner-owned buffer")
	}
}
