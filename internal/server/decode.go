package server

import (
	"bytes"
	"runtime"
	"strconv"
	"sync"
	"unicode/utf8"
)

// decodeCreate decodes a create body into req, which it overwrites. An
// inline population is one AgentSpec per worker, megabytes of them, and
// encoding/json's reflection is most of the cost of creating a session;
// so the common shape is decoded here in one pass over the bytes, with
// no reflection.
//
// The pass accepts only field names spelled exactly as in the struct
// tags of CreateSessionRequest, AgentSpec and PsiSpec (each at most once
// per object), JSON whitespace, strings with no escape, no control byte
// and valid UTF-8, and numbers, converted with the strconv calls
// encoding/json makes. On anything else — a case-variant, unknown or
// repeated key, an escape, null, a number its field cannot hold, a
// syntax error, trailing data, an empty body — it hands the same bytes
// to the strict decodeJSON, whose answer is final. So every body this
// accepts decodes to exactly what decodeJSON gives, and every error is
// decodeJSON's.
//
// An agents array of at least splitFloor bytes is decoded in GOMAXPROCS
// chunks at once, cut at element boundaries that the chunks' own decodes
// verify (splitAgents). Any other array, every array at GOMAXPROCS=1 and
// every split that fails to verify is decoded in the one sequential
// pass. Either way the request, and any hand-over, is the same.
func decodeCreate(body []byte, req *CreateSessionRequest) error {
	return decodeCreateSplit(body, req, runtime.GOMAXPROCS(0), splitFloor)
}

// decodeCreateSplit is decodeCreate with the chunk count and the size
// floor of the agents array's split as parameters, so that tests can
// force splits of small bodies.
func decodeCreateSplit(body []byte, req *CreateSessionRequest, chunks, floor int) error {
	*req = CreateSessionRequest{}
	d := bodyDecoder{buf: body, chunks: chunks, floor: floor}
	if d.request(req) {
		return nil
	}
	*req = CreateSessionRequest{}
	return decodeJSON(bytes.NewReader(body), req)
}

// splitFloor is the smallest agents array, in bytes from its '[' to the
// end of the body, that decodeCreate splits across goroutines: about 300
// archetype agents, which one pass decodes in ~0.5 ms and two chunks in
// ~0.4 ms. On a 2-vCPU host the split broke even at ~20 kB, where
// starting and joining the chunks and copying them into one slice eat
// the second core's gain.
const splitFloor = 64 << 10

// decodeDesign decodes a design query body into req, which it
// overwrites, by decodeCreate's rule: one pass over the bytes for the two
// query forms — an agent_id alone, or an inline agent alone — in the
// grammar decodeCreate accepts, and the strict decodeJSON, whose answer
// is final, for anything else (both members or neither, a null agent, an
// escape, an unknown key, ...).
func decodeDesign(body []byte, req *DesignQueryRequest) error {
	*req = DesignQueryRequest{}
	d := bodyDecoder{buf: body}
	if d.design(req) {
		return nil
	}
	*req = DesignQueryRequest{}
	return decodeJSON(bytes.NewReader(body), req)
}

// bodyDecoder is the cursor of decodeCreate and decodeDesign. Every
// method reports false when the input leaves the shape it accepts; the
// decode is then abandoned, so no method restores the cursor. chunks and
// floor configure the agents array's split (splitAgents); a zero value
// never splits.
type bodyDecoder struct {
	buf           []byte
	pos           int
	chunks, floor int
}

func (d *bodyDecoder) design(req *DesignQueryRequest) bool {
	var seen uint32
	ok := d.object(func(key []byte) bool {
		switch string(key) {
		case "agent_id":
			return once(&seen, 0) && d.str(&req.AgentID)
		case "agent":
			req.Agent = &AgentSpec{}
			return once(&seen, 1) && d.agent(req.Agent)
		}
		return false
	})
	d.space()
	return ok && (seen == 1 || seen == 2) && d.pos == len(d.buf)
}

func (d *bodyDecoder) request(req *CreateSessionRequest) bool {
	var seen uint32
	ok := d.object(func(key []byte) bool {
		switch string(key) {
		case "name":
			return once(&seen, 0) && d.str(&req.Name)
		case "agents":
			return once(&seen, 1) && d.agents(&req.Agents)
		case "m":
			return once(&seen, 2) && d.int(&req.M)
		case "delta":
			return once(&seen, 3) && d.float(&req.Delta)
		case "mu":
			return once(&seen, 4) && d.float(&req.Mu)
		case "policy":
			return once(&seen, 5) && d.str(&req.Policy)
		case "threshold":
			return once(&seen, 6) && d.float(&req.Threshold)
		case "amount":
			return once(&seen, 7) && d.float(&req.Amount)
		case "shards":
			return once(&seen, 8) && d.int(&req.Shards)
		}
		return false
	})
	d.space()
	return ok && d.pos == len(d.buf)
}

// agents decodes an array of agent specs. An empty array gives an empty,
// non-nil slice, as encoding/json does.
func (d *bodyDecoder) agents(dst *[]AgentSpec) bool {
	if !d.token('[') {
		return false
	}
	if d.token(']') {
		*dst = []AgentSpec{}
		return true
	}
	if d.chunks > 1 && len(d.buf)-d.pos >= d.floor {
		if agents, ok := d.splitAgents(); ok {
			*dst = agents
			return true
		}
	}
	agents, ok := d.run(-1)
	*dst = agents
	return ok
}

// run decodes the agents from the cursor on, each followed by ',' or, at
// the array's end, ']'. With end < 0 it runs to that ']'. With end ≥ 0
// it stops, reporting true, once an agent ends exactly at end, and
// reports false if an agent ends past end or the array ends first. The
// slice is sized once the first agent is decoded (agentsRoom), so that
// agents of about the first one's length never regrow it.
func (d *bodyDecoder) run(end int) ([]AgentSpec, bool) {
	start, span := d.pos, len(d.buf)-d.pos
	if end >= 0 {
		span = end + 1 - d.pos
	}
	var first AgentSpec
	if !d.agent(&first) {
		return nil, false
	}
	out := make([]AgentSpec, 1, agentsRoom(span, d.pos+1-start))
	out[0] = first
	for {
		if end >= 0 && d.pos >= end {
			return out, d.pos == end
		}
		if d.token(']') {
			return out, end < 0
		}
		if !d.token(',') {
			return nil, false
		}
		out = append(out, AgentSpec{})
		if !d.agent(&out[len(out)-1]) {
			return nil, false
		}
	}
}

// agentsRoom is the room for the agents in span bytes whose first agent,
// with its separator, takes first bytes: as many as fit if the rest are
// as long, plus an eighth. first is taken as at least 32 bytes, which
// bounds the room a short first agent followed by other data can claim.
func agentsRoom(span, first int) int {
	n := span / max(first, 32)
	return n + n/8 + 1
}

// splitAgents decodes a non-empty agents array from its first element
// in up to d.chunks chunks at once. The cuts are guessed: one at each of
// d.chunks−1 equal byte offsets of the rest of the body, on the '{' of
// the first "},{" at or after it. Then each chunk runs to the ',' before
// the next cut, and the last to the array's ']', on its own goroutine.
//
// The result is kept only if every chunk stops exactly there. The first
// chunk starts where the sequential pass does, and a chunk's decode
// depends on nothing but its cursor; so, by induction, a chunk that
// stops on the ',' before the next cut has followed the sequential
// pass's own path, and the next cut is an element that pass would
// decode next. The chunks are then, in order, the agents the sequential
// pass gives. On any other outcome — a cut inside a string, whitespace
// around the commas, fewer cuts than two chunks need, a chunk that
// declines — it reports false and leaves the cursor where it was, for
// the sequential pass to decode the array from its start.
func (d *bodyDecoder) splitAgents() ([]AgentSpec, bool) {
	start := d.pos
	step := (len(d.buf) - start) / d.chunks
	cuts := []int{start}
	for i := 1; i < d.chunks; i++ {
		from := max(start+i*step, cuts[len(cuts)-1]+1)
		j := -1
		if from < len(d.buf) {
			j = bytes.Index(d.buf[from:], elementBoundary)
		}
		if j < 0 {
			break
		}
		cuts = append(cuts, from+j+2)
	}
	if len(cuts) < 2 {
		return nil, false
	}
	cuts = append(cuts, len(d.buf))
	type part struct {
		agents []AgentSpec
		pos    int
		ok     bool
	}
	parts := make([]part, len(cuts)-1)
	last := len(parts) - 1
	decode := func(i int) {
		c := bodyDecoder{buf: d.buf, pos: cuts[i]}
		end := cuts[i+1] - 1
		if i == last {
			end = -1
		}
		agents, ok := c.run(end)
		parts[i] = part{agents, c.pos, ok}
	}
	var wg sync.WaitGroup
	for i := range last {
		wg.Add(1)
		go func() {
			defer wg.Done()
			decode(i)
		}()
	}
	decode(last)
	wg.Wait()
	n := 0
	for _, p := range parts {
		if !p.ok {
			return nil, false
		}
		n += len(p.agents)
	}
	agents := make([]AgentSpec, 0, n)
	for _, p := range parts {
		agents = append(agents, p.agents...)
	}
	d.pos = parts[last].pos
	return agents, true
}

// elementBoundary is the byte run between two agents of a compact array.
var elementBoundary = []byte("},{")

func (d *bodyDecoder) agent(a *AgentSpec) bool {
	var seen uint32
	return d.object(func(key []byte) bool {
		switch string(key) {
		case "id":
			return once(&seen, 0) && d.str(&a.ID)
		case "class":
			return once(&seen, 1) && d.class(&a.Class)
		case "psi":
			return once(&seen, 2) && d.psi(&a.Psi)
		case "beta":
			return once(&seen, 3) && d.float(&a.Beta)
		case "omega":
			return once(&seen, 4) && d.float(&a.Omega)
		case "size":
			return once(&seen, 5) && d.int(&a.Size)
		case "reservation":
			return once(&seen, 6) && d.float(&a.Reservation)
		case "weight":
			return once(&seen, 7) && d.float(&a.Weight)
		case "malice":
			return once(&seen, 8) && d.float(&a.Malice)
		}
		return false
	})
}

func (d *bodyDecoder) psi(p *PsiSpec) bool {
	var seen uint32
	return d.object(func(key []byte) bool {
		switch string(key) {
		case "r2":
			return once(&seen, 0) && d.float(&p.R2)
		case "r1":
			return once(&seen, 1) && d.float(&p.R1)
		case "r0":
			return once(&seen, 2) && d.float(&p.R0)
		}
		return false
	})
}

// once marks field bit as seen, reporting false if it already was.
func once(seen *uint32, bit uint) bool {
	if *seen&(1<<bit) != 0 {
		return false
	}
	*seen |= 1 << bit
	return true
}

// object walks one JSON object, calling member with each key once the
// cursor is past the key's colon; member decodes the value.
func (d *bodyDecoder) object(member func(key []byte) bool) bool {
	if !d.token('{') {
		return false
	}
	if d.token('}') {
		return true
	}
	for {
		key, ok := d.text()
		if !ok || !d.token(':') || !member(key) {
			return false
		}
		if d.token('}') {
			return true
		}
		if !d.token(',') {
			return false
		}
	}
}

// space skips JSON whitespace.
func (d *bodyDecoder) space() {
	for d.pos < len(d.buf) {
		switch d.buf[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

// token consumes c after optional whitespace.
func (d *bodyDecoder) token(c byte) bool {
	d.space()
	if d.pos < len(d.buf) && d.buf[d.pos] == c {
		d.pos++
		return true
	}
	return false
}

// text scans a string with no escape and no control byte, in valid
// UTF-8, and returns its contents (aliasing the input).
func (d *bodyDecoder) text() ([]byte, bool) {
	if !d.token('"') {
		return nil, false
	}
	start, ascii := d.pos, true
	for i := start; i < len(d.buf); i++ {
		switch c := d.buf[i]; {
		case c == '"':
			s := d.buf[start:i]
			if !ascii && !utf8.Valid(s) {
				return nil, false
			}
			d.pos = i + 1
			return s, true
		case c == '\\' || c < 0x20:
			return nil, false
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	return nil, false
}

func (d *bodyDecoder) str(dst *string) bool {
	s, ok := d.text()
	*dst = string(s)
	return ok
}

// class decodes a class name; the three canonical names share one string
// each instead of one allocation per agent.
func (d *bodyDecoder) class(dst *string) bool {
	s, ok := d.text()
	switch string(s) {
	case "honest":
		*dst = "honest"
	case "malicious":
		*dst = "malicious"
	case "community":
		*dst = "community"
	default:
		*dst = string(s)
	}
	return ok
}

// number scans one number in JSON grammar and returns its text.
func (d *bodyDecoder) number() ([]byte, bool) {
	d.space()
	b, i := d.buf, d.pos
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i+1)
	default:
		return nil, false
	}
	if i < len(b) && b[i] == '.' {
		j := digits(b, i+1)
		if j == i+1 {
			return nil, false
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(b, i)
		if j == i {
			return nil, false
		}
		i = j
	}
	num := b[d.pos:i]
	d.pos = i
	return num, true
}

// digits returns the index past the run of decimal digits at b[i:].
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// float decodes a float64 field as encoding/json does: ParseFloat at 64
// bits, and an out-of-range value (1e400) is an error.
func (d *bodyDecoder) float(dst *float64) bool {
	num, ok := d.number()
	if !ok {
		return false
	}
	v, err := strconv.ParseFloat(string(num), 64)
	*dst = v
	return err == nil
}

// int decodes an integer field as encoding/json does: ParseInt within
// the int's range, so a fraction or exponent ("2.0", "1e3") or an
// overflow is an error.
func (d *bodyDecoder) int(dst *int) bool {
	num, ok := d.number()
	if !ok {
		return false
	}
	v, err := strconv.ParseInt(string(num), 10, strconv.IntSize)
	*dst = int(v)
	return err == nil
}
