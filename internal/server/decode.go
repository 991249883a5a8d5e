package server

import (
	"bytes"
	"encoding/json"
	"strconv"
	"sync"
	"time"
	"unicode/utf8"
	"unsafe"

	"stmaker/internal/geo"
	"stmaker/internal/traj"
)

// Request decoding: a POST /summarize or POST /summarize/batch body is
// decoded by one forward scan that builds traj.Raw directly, instead of
// the reflection encoding/json spends on every GPS sample. The scan
// accepts only the canonical shape — the keys the request types declare,
// spelled exactly and each at most once, strings of ASCII without
// escapes, an integer k, in-range numbers, no null — and declines
// everything else to encoding/json on the same bytes. Where it accepts it
// makes encoding/json's own calls: number tokens checked against JSON's
// grammar go through strconv.ParseFloat and strconv.ParseInt, timestamps
// through (*time.Time).UnmarshalJSON on the raw quoted bytes. So every
// accepted input, decoded value and error message is encoding/json's;
// FuzzDecodeRequest holds the two decoders to that. docs/PERFORMANCE.md
// "Request decoding" has the measurements.

// DecodeSummarizeRequest decodes a POST /summarize body into req, which
// must be zero. The value and the error are exactly those of
// json.NewDecoder(bytes.NewReader(body)).Decode(req): bytes after the
// first JSON value are ignored. Decoded strings are copies, so body may
// be reused once it returns.
func DecodeSummarizeRequest(body []byte, req *SummarizeRequest) error {
	if scan(body, func(p *reqParser) bool { return p.request(req) }) {
		return nil
	}
	*req = SummarizeRequest{}
	return json.NewDecoder(bytes.NewReader(body)).Decode(req)
}

// decodeBatchRequest is DecodeSummarizeRequest for a POST
// /summarize/batch body; its items go through the same parser.
func decodeBatchRequest(body []byte, req *BatchRequest) error {
	if scan(body, func(p *reqParser) bool { return p.batch(req) }) {
		return nil
	}
	*req = BatchRequest{}
	return json.NewDecoder(bytes.NewReader(body)).Decode(req)
}

// maxPooledBytes bounds the memory one pooled request body buffer or
// parser keeps, so a single outsized request does not pin its memory in
// a pool for the life of the process.
const maxPooledBytes = 1 << 20

var parserPool = sync.Pool{New: func() any { return new(reqParser) }}

// scan runs parse over body with a pooled parser and reports whether the
// body had the canonical shape.
func scan(body []byte, parse func(*reqParser) bool) bool {
	p := parserPool.Get().(*reqParser)
	p.data, p.pos = body, 0
	ok := parse(p)
	p.data = nil
	if cap(p.samples)*int(unsafe.Sizeof(traj.Sample{})) <= maxPooledBytes {
		parserPool.Put(p)
	}
	return ok
}

// reqParser is the state of one scan. Each method consumes one value
// after any leading whitespace and reports false to decline the body.
type reqParser struct {
	data []byte
	pos  int
	// samples stages the samples of the array being parsed, so they
	// land in one exact-size slice. sampleList leaves it empty and
	// zeroed, so a pooled parser holds nothing of a past request.
	samples []traj.Sample
}

func (p *reqParser) ws() {
	for p.pos < len(p.data) {
		switch p.data[p.pos] {
		case ' ', '\t', '\n', '\r':
			p.pos++
		default:
			return
		}
	}
}

// eat consumes c after any whitespace, reporting whether it was next.
func (p *reqParser) eat(c byte) bool {
	p.ws()
	if p.pos < len(p.data) && p.data[p.pos] == c {
		p.pos++
		return true
	}
	return false
}

// object consumes an object whose members field parses. field consumes
// the value of the member named key and returns the member's bit in the
// set of keys seen; it returns false for a key the type does not
// declare or a value that declines.
func (p *reqParser) object(field func(key []byte) (bit uint8, ok bool)) bool {
	if !p.eat('{') {
		return false
	}
	var seen uint8
	for first := true; ; first = false {
		if p.eat('}') {
			return true
		}
		if !first && !p.eat(',') {
			return false
		}
		key, ok := p.str()
		if !ok || !p.eat(':') {
			return false
		}
		bit, ok := field(key)
		if !ok || seen&bit != 0 {
			return false
		}
		seen |= bit
	}
}

// array consumes an array, calling elem once per element to consume it.
func (p *reqParser) array(elem func() bool) bool {
	if !p.eat('[') {
		return false
	}
	for first := true; ; first = false {
		if p.eat(']') {
			return true
		}
		if !first && !p.eat(',') || !elem() {
			return false
		}
	}
}

// str consumes a string of ASCII without escapes, and without the bytes
// below 0x20 that JSON forbids unescaped, and returns the bytes between
// its quotes.
func (p *reqParser) str() ([]byte, bool) {
	if !p.eat('"') {
		return nil, false
	}
	for i := p.pos; i < len(p.data); i++ {
		switch c := p.data[i]; {
		case c == '"':
			s := p.data[p.pos:i]
			p.pos = i + 1
			return s, true
		case c < ' ' || c == '\\' || c >= utf8.RuneSelf:
			return nil, false
		}
	}
	return nil, false
}

// number consumes a token of JSON's number grammar and returns it.
func (p *reqParser) number() ([]byte, bool) {
	p.ws()
	d := p.data
	start := p.pos
	if p.pos < len(d) && d[p.pos] == '-' {
		p.pos++
	}
	switch {
	case p.pos < len(d) && d[p.pos] == '0':
		p.pos++
	case p.pos < len(d) && '1' <= d[p.pos] && d[p.pos] <= '9':
		p.digits()
	default:
		return nil, false
	}
	if p.pos < len(d) && d[p.pos] == '.' {
		p.pos++
		if !p.digits() {
			return nil, false
		}
	}
	if p.pos < len(d) && (d[p.pos] == 'e' || d[p.pos] == 'E') {
		p.pos++
		if p.pos < len(d) && (d[p.pos] == '+' || d[p.pos] == '-') {
			p.pos++
		}
		if !p.digits() {
			return nil, false
		}
	}
	return d[start:p.pos], true
}

// digits consumes a run of decimal digits, reporting whether it was
// non-empty.
func (p *reqParser) digits() bool {
	start := p.pos
	for p.pos < len(p.data) && '0' <= p.data[p.pos] && p.data[p.pos] <= '9' {
		p.pos++
	}
	return p.pos > start
}

// float consumes a number into f, parsed as encoding/json parses a
// float64 field.
func (p *reqParser) float(f *float64) bool {
	tok, ok := p.number()
	if !ok {
		return false
	}
	v, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		return false
	}
	*f = v
	return true
}

// integer consumes a number into n, parsed as encoding/json parses an
// int field; a fraction or an exponent declines.
func (p *reqParser) integer(n *int) bool {
	tok, ok := p.number()
	if !ok {
		return false
	}
	v, err := strconv.ParseInt(string(tok), 10, strconv.IntSize)
	if err != nil {
		return false
	}
	*n = int(v)
	return true
}

// text consumes a string into s.
func (p *reqParser) text(s *string) bool {
	b, ok := p.str()
	if ok {
		*s = string(b)
	}
	return ok
}

// timestamp consumes a string into t through t.UnmarshalJSON on its
// quoted bytes, the call encoding/json makes for a time.Time field.
func (p *reqParser) timestamp(t *time.Time) bool {
	p.ws()
	start := p.pos
	if _, ok := p.str(); !ok {
		return false
	}
	return t.UnmarshalJSON(p.data[start:p.pos]) == nil
}

func (p *reqParser) point(pt *geo.Point) bool {
	return p.object(func(key []byte) (uint8, bool) {
		switch string(key) {
		case "Lat":
			return 1, p.float(&pt.Lat)
		case "Lng":
			return 2, p.float(&pt.Lng)
		}
		return 0, false
	})
}

func (p *reqParser) sample(s *traj.Sample) bool {
	return p.object(func(key []byte) (uint8, bool) {
		switch string(key) {
		case "pt":
			return 1, p.point(&s.Pt)
		case "t":
			return 2, p.timestamp(&s.T)
		}
		return 0, false
	})
}

func (p *reqParser) raw(r *traj.Raw) bool {
	return p.object(func(key []byte) (uint8, bool) {
		switch string(key) {
		case "id":
			return 1, p.text(&r.ID)
		case "object":
			return 2, p.text(&r.Object)
		case "samples":
			return 4, p.sampleList(&r.Samples)
		}
		return 0, false
	})
}

// sampleList consumes an array of samples into a new slice of exactly
// its length; an empty array gives an empty, non-nil slice, as in
// encoding/json.
func (p *reqParser) sampleList(dst *[]traj.Sample) bool {
	ok := p.array(func() bool {
		p.samples = append(p.samples, traj.Sample{})
		return p.sample(&p.samples[len(p.samples)-1])
	})
	if ok {
		*dst = make([]traj.Sample, len(p.samples))
		copy(*dst, p.samples)
	}
	clear(p.samples)
	p.samples = p.samples[:0]
	return ok
}

func (p *reqParser) request(req *SummarizeRequest) bool {
	return p.object(func(key []byte) (uint8, bool) {
		switch string(key) {
		case "trajectory":
			req.Trajectory = new(traj.Raw)
			return 1, p.raw(req.Trajectory)
		case "k":
			return 2, p.integer(&req.K)
		case "region":
			return 4, p.text(&req.Region)
		}
		return 0, false
	})
}

func (p *reqParser) batch(req *BatchRequest) bool {
	return p.object(func(key []byte) (uint8, bool) {
		switch string(key) {
		case "items":
			return 1, p.itemList(&req.Items)
		case "k":
			return 2, p.integer(&req.K)
		case "region":
			return 4, p.text(&req.Region)
		}
		return 0, false
	})
}

// itemList consumes the items of a batch; like sampleList, an empty
// array gives an empty, non-nil slice.
func (p *reqParser) itemList(dst *[]SummarizeRequest) bool {
	*dst = []SummarizeRequest{}
	return p.array(func() bool {
		*dst = append(*dst, SummarizeRequest{})
		return p.request(&(*dst)[len(*dst)-1])
	})
}
