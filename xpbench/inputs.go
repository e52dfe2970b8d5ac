package main

import (
	"bytes"
	"fmt"

	"xmlproj"
	"xmlproj/internal/xmark"
	"xmlproj/internal/xpathmark"
)

// The two precompiled projections of the serving workloads, and the
// two extra bunches the /multiprune requests add to them.
const (
	queryLow = "/site/regions/africa/item/name" // keeps well under 1% of bytes
	queryMid = "//description"                  // keeps about 44% of bytes
)

var multiExtra = []string{
	"/site/people/person/name",
	"/site/closed_auctions/closed_auction/price",
}

// nonceLen is the width of the comment every served body and swept
// file starts with. Comments outside the root are dropped by every
// pruner, so the nonce changes the document digest without changing
// the expected output.
const nonceLen = len("<!--n:0000000000000000-->\n")

// putNonce writes nonce n (mod 10^16, to keep the width) into dst.
func putNonce(dst []byte, n uint64) {
	copy(dst, fmt.Sprintf("<!--n:%016d-->\n", n%1e16))
}

// doc is one generated XMark document with its nonce slot reserved.
type doc struct {
	name string
	data []byte // nonce comment + document
}

func genDoc(factor float64, seed int64) doc {
	var buf bytes.Buffer
	buf.Grow(nonceLen)
	buf.Write(make([]byte, nonceLen))
	if err := xmark.NewGenerator(factor, seed).Document().WriteXML(&buf); err != nil {
		panic(err) // writing to a bytes.Buffer cannot fail
	}
	d := doc{name: fmt.Sprintf("f%g", factor), data: buf.Bytes()}
	putNonce(d.data, 0)
	return d
}

// schema parses the XMark DTD, the program-side start of every
// workload.
func schema() (*xmlproj.DTD, error) {
	return xmlproj.ParseDTDString(xmark.DTDSource, "site")
}

func inferQueries(d *xmlproj.DTD, queries ...string) (*xmlproj.Projector, error) {
	qs := make([]*xmlproj.Query, len(queries))
	for i, src := range queries {
		q, err := xmlproj.Compile(src)
		if err != nil {
			return nil, err
		}
		qs[i] = q
	}
	return d.Infer(xmlproj.Materialized, qs...)
}

// reference prunes data on the encoding/xml decoder engine, the
// differential reference the byte-level engines are tested against:
// none of the scanner, parallel, pipelined, shared-scan or cache code
// runs here.
func reference(p *xmlproj.Projector, data []byte, validate bool) ([]byte, error) {
	var out bytes.Buffer
	if _, err := p.PruneBytes(&out, data, xmlproj.StreamOptions{Engine: xmlproj.PruneDecoder, Validate: validate}); err != nil {
		return nil, err
	}
	return out.Bytes(), nil
}

// querySource finds an XMark (QMnn) or XPathMark (QPnn) query.
func querySource(id string) (string, error) {
	if q := xmark.ByID(id); q != nil {
		return q.Source, nil
	}
	for _, q := range xpathmark.Queries {
		if q.ID == id {
			return q.Source, nil
		}
	}
	return "", fmt.Errorf("unknown query %s", id)
}
