package index

import (
	"errors"
	"strings"
	"testing"
)

// lookupFor builds a Lookup over a fixed name→symbol table.
func lookupFor(names ...string) func([]byte) (int32, bool) {
	m := make(map[string]int32, len(names))
	for i, n := range names {
		m[n] = int32(i)
	}
	return func(local []byte) (int32, bool) {
		sym, ok := m[string(local)]
		return sym, ok
	}
}

var testLookup = lookupFor("root", "item", "name", "pad", "empty", "deep", "deeper", "deepest", "a", "b")

// built is the index of a document presented as one whole window: the
// reference windowed runs are compared with.
type built struct {
	Window
	depth int // open elements after the document
}

func build(doc string, lookup func([]byte) (int32, bool), maxTok int) built {
	si := StreamIndexer{MaxTokenSize: maxTok, Lookup: lookup}
	w := si.Window([]byte(doc))
	w.Entries = append([]Entry(nil), w.Entries...)
	return built{Window: w, depth: si.Depth()}
}

// feedWindows drives a StreamIndexer the way the parallel pruner's
// window sources do. The reader source appends each simulated read to
// the carry and indexes the assembled copy; the resident source
// indexes the sub-slice doc[lo:hi], where lo advances past the
// consumed constructs and hi by chunk fresh bytes. Returned entries are
// rebased to absolute document offsets.
func feedWindows(t *testing.T, doc string, chunk int, maxTok int, resident bool) ([]Entry, bool, error) {
	t.Helper()
	si := StreamIndexer{MaxTokenSize: maxTok, Lookup: testLookup}
	var all []Entry
	var carry []byte
	base := 0 // document offset of the window's first byte
	for hi := 0; ; {
		hi = min(hi+chunk, len(doc))
		var data []byte
		if resident {
			data = []byte(doc)[base:hi]
		} else {
			data = append(append([]byte(nil), carry...), doc[base+len(carry):hi]...)
		}
		w := si.Window(data)
		for _, e := range w.Entries {
			e.Off += base
			e.End += base
			all = append(all, e)
		}
		if w.Err != nil {
			return all, w.Dead, w.Err
		}
		if w.Dead {
			return all, true, nil
		}
		carry = append(carry[:0], data[w.Consumed:]...)
		base += w.Consumed
		if hi == len(doc) {
			return all, false, nil
		}
	}
}

func TestBuildClassifiesConstructs(t *testing.T) {
	doc := `<?xml version="1.0"?><!DOCTYPE a [<!ELEMENT a (b)*>]>` +
		`<a><!-- c --><b x="1>2">t</b><![CDATA[<raw>]]><b/><?pi d?></a>`
	ix := build(doc, lookupFor("a", "b"), 0)
	if ix.Dead || ix.Err != nil || ix.Consumed != len(doc) || ix.depth != 0 {
		t.Fatalf("whole-document window: dead=%v err=%v consumed=%d/%d depth=%d",
			ix.Dead, ix.Err, ix.Consumed, len(doc), ix.depth)
	}

	wantKinds := []Kind{PI, Directive, Start, Comment, Start, End, CDATA, StartEmpty, PI, End}
	if len(ix.Entries) != len(wantKinds) {
		t.Fatalf("got %d entries, want %d: %+v", len(ix.Entries), len(wantKinds), ix.Entries)
	}
	for i, k := range wantKinds {
		if ix.Entries[i].Kind != k {
			t.Errorf("entry %d: kind %d, want %d (%+v)", i, ix.Entries[i].Kind, k, ix.Entries[i])
		}
	}
	// Depths: the prolog and the root's own tags at 0, everything
	// inside <a> at 1.
	for i, e := range ix.Entries {
		want := int32(1)
		if i < 3 || i == len(wantKinds)-1 {
			want = 0
		}
		if e.Depth != want {
			t.Errorf("entry %d (kind %d): depth %d, want %d", i, e.Kind, e.Depth, want)
		}
	}
	// Symbols: the <b> start and </b> end resolve, the quoted ">" inside
	// the attribute does not end the tag early.
	if ix.Entries[2].Sym != 0 || ix.Entries[4].Sym != 1 || ix.Entries[5].Sym != 1 || ix.Entries[7].Sym != 1 {
		t.Errorf("symbols: %+v", ix.Entries)
	}
	bStart := ix.Entries[4]
	if got := doc[bStart.Off:bStart.End]; got != `<b x="1>2">` {
		t.Errorf("b extent: %q", got)
	}
}

// windowDoc has every construct kind, so window edges sweeping over it
// cut mid-tag, mid-comment, mid-CDATA, mid-entity and mid-name.
var windowDoc = `<?xml version="1.0"?><!DOCTYPE root [<!ELEMENT root ANY>]>` +
	`<root><item id="1"><name>first &amp; last</name></item>` +
	`<!-- a comment with <tags> inside -->` +
	`<item id="2>x"><![CDATA[not <a> tag]]></item>` +
	`<pad>` + strings.Repeat("x", 100) + `</pad>` +
	`<empty/><deep><deeper><deepest>t</deepest></deeper></deep></root>`

func checkWindowed(t *testing.T, resident bool) {
	t.Helper()
	want := build(windowDoc, testLookup, 0).Entries
	for chunk := 1; chunk <= len(windowDoc)+7; chunk++ {
		got, dead, werr := feedWindows(t, windowDoc, chunk, 0, resident)
		if werr != nil || dead {
			t.Fatalf("chunk %d: err=%v dead=%v", chunk, werr, dead)
		}
		if len(got) != len(want) {
			t.Fatalf("chunk %d: %d entries, want %d\ngot:  %+v\nwant: %+v", chunk, len(got), len(want), got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("chunk %d entry %d: %+v, want %+v", chunk, i, got[i], want[i])
			}
		}
	}
}

// TestBuildChunkSizeSweep: resident windows — sub-slices whose edges
// land at every offset of the document — yield the entry list of one
// whole-document window.
func TestBuildChunkSizeSweep(t *testing.T) { checkWindowed(t, true) }

// TestStreamMatchesBuild: reader windows — each read appended to a
// copied carry, at every read size — yield the entry list of one
// whole-document window.
func TestStreamMatchesBuild(t *testing.T) { checkWindowed(t, false) }

// TestBuildMaxTokenSize: an oversized construct or text run fails with
// ErrTokenTooLong in a whole-document window and in windows far
// smaller than the token.
func TestBuildMaxTokenSize(t *testing.T) {
	cases := []struct {
		name string
		doc  string
	}{
		{"long start tag", `<root><e a="` + strings.Repeat("v", 100) + `">x</e></root>`},
		{"long text run", `<root>` + strings.Repeat("t", 200) + `</root>`},
		{"long comment", `<root><!--` + strings.Repeat("c", 150) + `--></root>`},
		{"long cdata", `<root><![CDATA[` + strings.Repeat("d", 150) + `]]></root>`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if ix := build(tc.doc, nil, 64); !errors.Is(ix.Err, ErrTokenTooLong) {
				t.Fatalf("whole window: got %v, want ErrTokenTooLong", ix.Err)
			}
			for _, resident := range []bool{false, true} {
				if _, _, err := feedWindows(t, tc.doc, 16, 64, resident); !errors.Is(err, ErrTokenTooLong) {
					t.Fatalf("resident=%v: got %v, want ErrTokenTooLong", resident, err)
				}
			}
			// The same document indexes fine with a generous cap.
			if ix := build(tc.doc, nil, 1<<20); ix.Err != nil || ix.Consumed != len(tc.doc) {
				t.Fatalf("generous cap: err=%v consumed=%d/%d", ix.Err, ix.Consumed, len(tc.doc))
			}
		})
	}
}

// TestBuildStructureErrors: for each kind of broken structure, the
// whole-document window shows what the parallel pruner's spine acts
// on. A malformed construct marks the window dead; an unterminated
// construct stays unconsumed; unclosed elements leave depth open; and
// structure that is well-formed at the byte level (several roots, an
// empty-element root, no root at all) indexes cleanly, leaving the
// verdict to the spine.
func TestBuildStructureErrors(t *testing.T) {
	const (
		clean = iota
		dead
		tail
		open
	)
	cases := []struct {
		name string
		doc  string
		want int
	}{
		{"two roots", `<a></a><b></b>`, clean},
		{"empty-element root", `<a/>`, clean},
		{"unbalanced end", `</a>`, dead},
		{"unterminated element", `<a><b></b>`, open},
		{"unterminated comment", `<a><!-- no end</a>`, tail},
		{"unterminated cdata", `<a><![CDATA[ no end</a>`, tail},
		{"unterminated tag", `<a><b `, tail},
		{"angle in attribute", `<a><b x="<"></b></a>`, dead},
		{"no root", `   `, clean},
		{"text only", `just text`, clean},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ix := build(tc.doc, nil, 0)
			got := clean
			switch {
			case ix.Err != nil:
				t.Fatalf("unexpected error %v", ix.Err)
			case ix.Dead:
				got = dead
			case len(ix.Entries) > 0 && ix.Consumed != len(tc.doc):
				got = tail
			case ix.depth != 0:
				got = open
			}
			if got != tc.want {
				t.Fatalf("outcome %d, want %d (%+v, depth %d)", got, tc.want, ix.Window, ix.depth)
			}
		})
	}
}

func TestBuildNoLookupLeavesSymsUnset(t *testing.T) {
	ix := build(`<a><b>t</b></a>`, nil, 0)
	if len(ix.Entries) != 4 {
		t.Fatalf("got %d entries, want 4", len(ix.Entries))
	}
	for i, e := range ix.Entries {
		if e.Sym != -1 {
			t.Errorf("entry %d: sym %d, want -1", i, e.Sym)
		}
	}
}

// TestStreamDeadConditions: only the constructs the serial scanner is
// guaranteed to reject mark the stream dead — a bare '<' inside a start
// tag and an end tag at depth zero. Multiple roots are NOT dead: the
// serial scanner accepts the bytes and errors (or not) at a higher
// layer, so the spine must see them.
func TestStreamDeadConditions(t *testing.T) {
	dead := []string{
		`<a><b <c></a>`,
		`<a x="<"></a>`,
		`</a>`,
		`<a></a></b>`,
	}
	for _, doc := range dead {
		for _, chunk := range []int{1, 4, 1 << 10} {
			for _, resident := range []bool{false, true} {
				_, isDead, err := feedWindows(t, doc, chunk, 0, resident)
				if err != nil {
					t.Fatalf("%q chunk %d: unexpected err %v", doc, chunk, err)
				}
				if !isDead {
					t.Errorf("%q chunk %d resident=%v: expected dead stream", doc, chunk, resident)
				}
			}
		}
	}
	alive := []string{
		`<a></a><b></b>`, // two roots: serial layer decides
		`<a/><b/>`,
		`<a>text with > and "<!" like bytes</a>`,
		`<a><!-- < inside comment --><![CDATA[< raw]]></a>`,
	}
	for _, doc := range alive {
		for _, chunk := range []int{1, 4, 1 << 10} {
			for _, resident := range []bool{false, true} {
				ents, isDead, err := feedWindows(t, doc, chunk, 0, resident)
				if err != nil || isDead {
					t.Errorf("%q chunk %d resident=%v: err=%v dead=%v", doc, chunk, resident, err, isDead)
				}
				if len(ents) == 0 {
					t.Errorf("%q chunk %d resident=%v: no entries", doc, chunk, resident)
				}
			}
		}
	}
}

// TestStreamDeadLatches: once dead, later windows return immediately.
func TestStreamDeadLatches(t *testing.T) {
	si := StreamIndexer{Lookup: lookupFor("a")}
	w := si.Window([]byte(`</a>`))
	if !w.Dead {
		t.Fatal("end tag at depth 0 should be dead")
	}
	w = si.Window([]byte(`<a></a>`))
	if !w.Dead || len(w.Entries) != 0 {
		t.Fatalf("dead indexer revived: %+v", w)
	}
}

// TestStreamTokenTooLong: an oversized construct or inter-construct
// text run fails with ErrTokenTooLong even when it spans many windows.
func TestStreamTokenTooLong(t *testing.T) {
	cases := []string{
		`<a x="` + strings.Repeat("v", 200) + `">x</a>`,
		`<a>` + strings.Repeat("t", 200) + `</a>`,
		`<a><!--` + strings.Repeat("c", 200) + `--></a>`,
	}
	for _, doc := range cases {
		for _, chunk := range []int{7, 64, 1 << 10} {
			_, _, err := feedWindows(t, doc, chunk, 64, false)
			if !errors.Is(err, ErrTokenTooLong) {
				t.Errorf("%.20q chunk %d: got %v, want ErrTokenTooLong", doc, chunk, err)
			}
		}
		if _, _, err := feedWindows(t, doc, 16, 1<<20, false); err != nil {
			t.Errorf("%.20q generous cap: %v", doc, err)
		}
	}
}

// TestStreamDepthCarries: depth persists across windows so entries in
// later windows keep absolute depths.
func TestStreamDepthCarries(t *testing.T) {
	doc := `<a><b><c>t</c></b></a>`
	ref := build(doc, nil, 0).Entries
	for _, resident := range []bool{false, true} {
		ents, dead, err := feedWindows(t, doc, 4, 0, resident)
		if err != nil || dead {
			t.Fatalf("err=%v dead=%v", err, dead)
		}
		if len(ents) != len(ref) {
			t.Fatalf("%d entries, want %d", len(ents), len(ref))
		}
		for i := range ents {
			if ents[i].Depth != ref[i].Depth {
				t.Errorf("resident=%v entry %d: depth %d, want %d", resident, i, ents[i].Depth, ref[i].Depth)
			}
		}
	}
}
