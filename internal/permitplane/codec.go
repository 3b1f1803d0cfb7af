package permitplane

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"reflect"
	"strconv"
	"strings"
	"sync"

	"threegol/internal/permit"
)

// The wire codec of POST /permits/batch. The two bodies have one fixed
// shape each, so they are written by appending and read by a parser
// that knows the shape — no reflection on the hot path. The bytes are
// exactly encoding/json's: the encoders reproduce its output for the
// plain structs, and the parsers accept only the canonical shape
// (exact-case keys in declaration order, unescaped ASCII strings,
// JSON-grammar numbers, whitespace anywhere JSON allows it) and report
// "not mine" for everything else — escapes, non-ASCII, unknown,
// reordered, duplicate or differently-cased keys, nulls — which callers
// hand to encoding/json through the method-less plain* types. What is
// accepted, what is rejected and what is decoded are therefore
// encoding/json's by construction; FuzzBatchCodec holds the parsers to
// it.
//
// The types implement json.Unmarshaler, so json.Unmarshal callers get
// the parser (after encoding/json's own validity scan). They do not
// implement json.Marshaler: encoding/json re-scans and copies whatever
// a Marshaler returns, which costs more than its reflection encoder
// saves here (430 against 231 µs for a 512-request body pair), and
// json.Marshal of the plain structs already writes the same bytes. The
// wire paths call the append encoders directly.

// plainBatchRequest and plainBatchResponse are the wire types without
// their UnmarshalJSON: the reference encoding/json is asked for.
type (
	plainBatchRequest  BatchRequest
	plainBatchResponse BatchResponse
)

// UnmarshalJSON implements json.Unmarshaler: the shape parser, or
// encoding/json for anything it does not take.
func (r *BatchRequest) UnmarshalJSON(data []byte) error {
	reqs := make([]PermitRequest, 0, wireCap(data))
	if walkBatchRequest(data, func(device, cell []byte) {
		reqs = append(reqs, PermitRequest{Device: string(device), Cell: string(cell)})
	}) {
		r.Requests = reqs
		return nil
	}
	return json.Unmarshal(data, (*plainBatchRequest)(r))
}

// UnmarshalJSON implements json.Unmarshaler: the shape parser, or
// encoding/json for anything it does not take.
func (r *BatchResponse) UnmarshalJSON(data []byte) error {
	if decisions, ok := parseBatchResponse(data, nil); ok {
		r.Decisions = decisions
		return nil
	}
	return json.Unmarshal(data, (*plainBatchResponse)(r))
}

// appendBatchRequest appends the JSON of BatchRequest{reqs} to dst.
func appendBatchRequest(dst []byte, reqs []PermitRequest) []byte {
	if reqs == nil {
		return append(dst, `{"requests":null}`...)
	}
	dst = append(dst, `{"requests":[`...)
	for i := range reqs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"device":`...)
		dst = appendJSONString(dst, reqs[i].Device)
		dst = append(dst, `,"cell":`...)
		dst = appendJSONString(dst, reqs[i].Cell)
		dst = append(dst, '}')
	}
	return append(dst, "]}"...)
}

// appendBatchResponse appends the JSON of BatchResponse{decisions} to
// dst. A NaN or infinite TTL or utilisation has no JSON form and is
// encoding/json's error, never bytes.
func appendBatchResponse(dst []byte, decisions []permit.Response) ([]byte, error) {
	if decisions == nil {
		return append(dst, `{"decisions":null}`...), nil
	}
	var err error
	dst = append(dst, `{"decisions":[`...)
	for i := range decisions {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"granted":`...)
		dst = strconv.AppendBool(dst, decisions[i].Granted)
		dst = append(dst, `,"ttl_seconds":`...)
		if dst, err = appendJSONFloat(dst, decisions[i].TTLSeconds); err != nil {
			return dst, err
		}
		dst = append(dst, `,"utilization":`...)
		if dst, err = appendJSONFloat(dst, decisions[i].Utilization); err != nil {
			return dst, err
		}
		dst = append(dst, '}')
	}
	return append(dst, "]}"...), nil
}

// Byte classes of the canonical shape. wirePlain marks what a string
// may hold to be read as is: printable ASCII but the quote and the
// backslash. wireVerbatim is the subset encoding/json also writes as
// is (it escapes <, > and & for HTML's sake).
var wirePlain, wireVerbatim [256]bool

func init() {
	for c := 0x20; c < 0x80; c++ {
		wirePlain[c] = c != '"' && c != '\\'
		wireVerbatim[c] = wirePlain[c] && c != '<' && c != '>' && c != '&'
	}
}

// appendJSONString appends s as encoding/json writes it.
func appendJSONString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if !wireVerbatim[s[i]] {
			b, _ := json.Marshal(s) // a string always marshals
			return append(dst, b...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// pow10 holds the powers of ten exact in a float64.
var pow10 = [...]float64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15}

// appendJSONFloat appends f as encoding/json writes a float64: shortest
// 'f' form, 'e' form below 1e-6 and from 1e21 with the exponent's
// leading zero dropped. A value below 1e15, -0 aside, with at most six
// decimals (integral TTLs, utilisations like 0.95) is the m with m /
// 10^d == |f| for the least d, written by AppendInt: while m < 2^50 one
// d-decimal at most is within half an ulp of f, and Round finds it.
func appendJSONFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	if a := math.Abs(f); a < 1e15 && (f != 0 || !math.Signbit(f)) {
		for d := 0; d <= 6; d++ {
			m := math.Round(a * pow10[d])
			if m >= 1<<50 {
				break
			}
			if m/pow10[d] == a {
				return appendDecimal(dst, f < 0, int64(m), d), nil
			}
		}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// e-09 → e-9, as encoding/json does.
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && (dst[n-3] == '-' || dst[n-3] == '+') && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

// appendDecimal appends ±m / 10^d with exactly d decimals.
func appendDecimal(dst []byte, neg bool, m int64, d int) []byte {
	if neg {
		dst = append(dst, '-')
	}
	if d == 0 {
		return strconv.AppendInt(dst, m, 10)
	}
	unit := int64(pow10[d])
	dst = strconv.AppendInt(dst, m/unit, 10)
	point := len(dst)
	dst = strconv.AppendInt(dst, unit+m%unit, 10) // a 1, then the d decimals zero-padded
	dst[point] = '.'
	return dst
}

// wireParser walks one body of the canonical shape. Every method
// reports false on the first byte that is not what the shape has
// there; the caller then abandons the parse.
type wireParser struct {
	b []byte
	i int
}

// space consumes whitespace (inlined: one compare on the canonical shape).
func (p *wireParser) space() {
	for p.i < len(p.b) && (p.b[p.i] == ' ' || p.b[p.i] == '\t' || p.b[p.i] == '\n' || p.b[p.i] == '\r') {
		p.i++
	}
}

// lit consumes optional whitespace, then the literal s.
func (p *wireParser) lit(s string) bool {
	p.space()
	if len(p.b)-p.i < len(s) || string(p.b[p.i:p.i+len(s)]) != s {
		return false
	}
	p.i += len(s)
	return true
}

// lits consumes the tokens of s — punctuation bytes and quoted keys —
// with whitespace allowed before each: in one compare when s is spelt
// compactly, as the canonical shape has it, else token by token.
func (p *wireParser) lits(s string) bool {
	if p.lit(s) {
		return true
	}
	for len(s) > 0 {
		n := 1
		if s[0] == '"' {
			n = strings.IndexByte(s[1:], '"') + 2
		}
		if !p.lit(s[:n]) {
			return false
		}
		s = s[n:]
	}
	return true
}

// end reports whether only whitespace is left.
func (p *wireParser) end() bool {
	p.space()
	return p.i == len(p.b)
}

// raw consumes a string of plain bytes and returns them in place: a
// slice of the body, not a copy.
func (p *wireParser) raw() ([]byte, bool) {
	if !p.lit(`"`) {
		return nil, false
	}
	for j := p.i; j < len(p.b); j++ {
		if c := p.b[j]; !wirePlain[c] {
			if c != '"' {
				return nil, false
			}
			b := p.b[p.i:j]
			p.i = j + 1
			return b, true
		}
	}
	return nil, false
}

// boolean consumes true or false.
func (p *wireParser) boolean() (v, ok bool) {
	if p.lit("true") {
		return true, true
	}
	return false, p.lit("false")
}

// num consumes a number of JSON's grammar and converts it as
// encoding/json does; a number float64 cannot hold is not taken. One of
// at most 15 digits and no exponent is m / 10^d with m and 10^d exact in
// a float64, so their correctly rounded quotient is ParseFloat's answer.
func (p *wireParser) num() (float64, bool) {
	p.space()
	b, i := p.b, p.i
	var v int64
	n := 0 // digits taken into v
	digits := func() bool {
		from := i
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			v = v*10 + int64(b[i]-'0')
			i++
		}
		n += i - from
		return i > from
	}
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	if i < len(b) && b[i] == '0' {
		i++
	} else if !digits() {
		return 0, false
	}
	decimals := 0
	if i < len(b) && b[i] == '.' {
		i++
		from := i
		if !digits() {
			return 0, false
		}
		decimals = i - from
	}
	exact := n <= 15
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		exact = false
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if !digits() {
			return 0, false
		}
	}
	if exact {
		f := float64(v) / pow10[decimals]
		if neg {
			f = -f // -0 included
		}
		p.i = i
		return f, true
	}
	f, err := strconv.ParseFloat(string(b[p.i:i]), 64)
	if err != nil {
		return 0, false
	}
	p.i = i
	return f, true
}

// list consumes open (`{"<key>":[`), then calls item for each element,
// then `]}` and the end of the body.
func (p *wireParser) list(open string, item func() bool) bool {
	if !p.lits(open) {
		return false
	}
	empty := p.lit("]")
	for more := !empty; more; more = p.lit(",") {
		if !item() {
			return false
		}
	}
	return (empty || p.lit("]")) && p.lit("}") && p.end()
}

// wireCap sizes a decoded slice from the body's object count, capped so
// a body of braces cannot ask for more than a full batch up front.
func wireCap(data []byte) int {
	return min(bytes.Count(data, []byte{'{'}), MaxBatch+1)
}

// serverRequest is a PermitRequest as the server holds it: the device's
// bytes where the parse found them — inside the request body, so
// nothing may keep them past the grant store's RecordDecisions (see
// batchScratch) — and the cell as a string, for the monitoring hook.
type serverRequest struct {
	device []byte
	cell   string
}

// serverRequests converts decoded PermitRequests into the server's form
// in into[:0]: encoding/json's path, which copies each device.
func serverRequests(into []serverRequest, reqs []PermitRequest) []serverRequest {
	into = into[:0]
	for _, pr := range reqs {
		into = append(into, serverRequest{device: []byte(pr.Device), cell: pr.Cell})
	}
	return into
}

// cellTable hands out the cell IDs a scratch's batches name: a cell the
// table holds costs a map lookup by the body's bytes, not a string. It
// rests on one property of real traffic, that the cells a permit plane
// serves are few next to the requests naming them, so after the first
// batches every cell is a hit. A table belongs to one scratch, and so
// to one handler at a time: it has no lock.
type cellTable struct {
	names map[string]string
	size  int // bytes charged to names
}

// cellTableBytes bounds a table: each name is charged its length plus
// 32 bytes for its entry, so ~1 600 cells of ordinary IDs. A cell past
// the bound is a string per request.
const cellTableBytes = 64 << 10

// cell returns the string of a cell ID.
func (t *cellTable) cell(b []byte) string {
	if name, ok := t.names[string(b)]; ok {
		return name
	}
	name := string(b)
	if cost := len(name) + 32; t.size+cost <= cellTableBytes {
		if t.names == nil {
			t.names = make(map[string]string)
		}
		t.names[name] = name
		t.size += cost
	}
	return name
}

// walkBatchRequest walks a BatchRequest body of the canonical shape,
// handing add each request's device and cell, in order, as slices of
// data, and reports whether the body had that shape.
func walkBatchRequest(data []byte, add func(device, cell []byte)) bool {
	p := wireParser{b: data}
	return p.list(`{"requests":[`, func() bool {
		if !p.lits(`{"device":`) {
			return false
		}
		device, ok := p.raw()
		if !ok || !p.lits(`,"cell":`) {
			return false
		}
		cell, ok := p.raw()
		if !ok || !p.lit("}") {
			return false
		}
		add(device, cell)
		return true
	})
}

// parseBatchRequest is the server's decode of a BatchRequest body of the
// canonical shape: into into[:0] (allocating when that is too small),
// devices in place and cells from cells. It reports whether the body had
// that shape.
func parseBatchRequest(data []byte, into []serverRequest, cells *cellTable) ([]serverRequest, bool) {
	if n := wireCap(data); cap(into) < n {
		into = make([]serverRequest, 0, n)
	}
	reqs := into[:0]
	ok := walkBatchRequest(data, func(device, cell []byte) {
		reqs = append(reqs, serverRequest{device: device, cell: cells.cell(cell)})
	})
	return reqs, ok
}

// parseBatchResponse decodes a BatchResponse body of the canonical shape
// into into[:0] (allocating when that is too small) and reports whether
// the body had that shape.
func parseBatchResponse(data []byte, into []permit.Response) ([]permit.Response, bool) {
	p := wireParser{b: data}
	if n := wireCap(data); cap(into) < n {
		into = make([]permit.Response, 0, n)
	}
	decisions := into[:0]
	ok := p.list(`{"decisions":[`, func() bool {
		if !p.lits(`{"granted":`) {
			return false
		}
		granted, ok := p.boolean()
		if !ok || !p.lits(`,"ttl_seconds":`) {
			return false
		}
		ttl, ok := p.num()
		if !ok || !p.lits(`,"utilization":`) {
			return false
		}
		util, ok := p.num()
		if !ok || !p.lit("}") {
			return false
		}
		decisions = append(decisions, permit.Response{Granted: granted, TTLSeconds: ttl, Utilization: util})
		return true
	})
	return decisions, ok
}

// wireBuf is a reusable body buffer: the server's request body lives in
// its handler's scratch, the client's two bodies come from wirePool
// under the ownership rule on requestBuf.
type wireBuf struct {
	b []byte
}

// maxWireKeep is the largest body buffer the pool keeps (a 512-request
// batch is ~25 KB out, ~35 KB back); a rare huge batch is left to the
// garbage collector.
const maxWireKeep = 1 << 20

var wirePool = sync.Pool{New: func() any { return new(wireBuf) }}

func getWireBuf() *wireBuf { return wirePool.Get().(*wireBuf) }

func putWireBuf(w *wireBuf) {
	if cap(w.b) > maxWireKeep {
		return
	}
	w.b = w.b[:0]
	wirePool.Put(w)
}

// readFrom replaces the buffer's contents with everything r yields.
// size, when positive, is the declared length — a sizing hint only.
func (w *wireBuf) readFrom(r io.Reader, size int64) error {
	w.b = w.b[:0]
	if size > 0 && size < maxWireKeep && int(size) >= cap(w.b) {
		w.b = make([]byte, 0, size+1)
	}
	for {
		if len(w.b) == cap(w.b) {
			w.b = append(w.b, 0)[:len(w.b)]
		}
		n, err := r.Read(w.b[len(w.b):cap(w.b)])
		w.b = w.b[:len(w.b)+n]
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}
