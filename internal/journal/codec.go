package journal

import (
	"encoding/json"
	"math"
	"strconv"
)

// appendRecord appends r's payload to b: byte for byte what json.Marshal(r)
// writes, without reflection. Keys come in the struct's order, the
// omitempty fields are left out when zero, and the weight is formatted as
// encoding/json formats a float64. A record carrying an engine error goes
// through json.Marshal for its string escaping, and so does a NaN or
// infinite weight, which stays json.Marshal's error.
func appendRecord(b []byte, r Record) ([]byte, error) {
	if r.Err != "" || math.IsNaN(r.Weight) || math.IsInf(r.Weight, 0) {
		p, err := json.Marshal(r)
		return append(b, p...), err
	}
	b = append(b, `{"i":`...)
	b = strconv.AppendInt(b, int64(r.Index), 10)
	b = append(b, `,"t":`...)
	b = strconv.AppendInt(b, int64(r.Thread), 10)
	b = append(b, `,"d":`...)
	b = strconv.AppendInt(b, r.DynInst, 10)
	b = append(b, `,"b":`...)
	b = strconv.AppendInt(b, int64(r.Bit), 10)
	b = append(b, `,"o":`...)
	b = strconv.AppendUint(b, uint64(r.Outcome), 10)
	b = append(b, `,"w":`...)
	b = appendFloat(b, r.Weight)
	if r.CTAsSkipped != 0 {
		b = append(b, `,"cs":`...)
		b = strconv.AppendInt(b, r.CTAsSkipped, 10)
	}
	if r.EarlyExit {
		b = append(b, `,"ee":true`...)
	}
	if r.IntraResumed {
		b = append(b, `,"ir":true`...)
	}
	if r.Attempts != 0 {
		b = append(b, `,"a":`...)
		b = strconv.AppendInt(b, int64(r.Attempts), 10)
	}
	return append(b, '}'), nil
}

// appendFloat formats a finite f as encoding/json does: shortest
// round-trip digits, in exponent form below 1e-6 and from 1e21 in
// magnitude, with a one-digit negative exponent written e-9, not e-09.
func appendFloat(b []byte, f float64) []byte {
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// decodeRecord parses one record payload. The canonical shape appendRecord
// writes is parsed by hand; every other payload — a record with an engine
// error, a legacy key such as "fb", whitespace, escapes, arbitrary bytes —
// goes to encoding/json, which stays the reference for what a payload
// means: whatever parseRecord accepts, json.Unmarshal accepts as the same
// Record.
func decodeRecord(p []byte) (Record, error) {
	if r, ok := parseRecord(p); ok {
		return r, nil
	}
	var r Record
	err := json.Unmarshal(p, &r)
	return r, err
}

// parseRecord accepts exactly the payloads appendRecord writes without
// falling back to json.Marshal: the keys i,t,d,b,o,w, then cs, ee, ir and a
// when present, in that order, with no whitespace, plain JSON numbers that
// fit their fields, and true for the two flags. ok is false for anything
// else.
func parseRecord(p []byte) (r Record, ok bool) {
	c := cursor{b: p, ok: true}
	c.key(`{"i":`)
	r.Index = c.int()
	c.key(`,"t":`)
	r.Thread = c.int()
	c.key(`,"d":`)
	r.DynInst = c.int64()
	c.key(`,"b":`)
	r.Bit = c.int()
	c.key(`,"o":`)
	r.Outcome = c.uint8()
	c.key(`,"w":`)
	r.Weight = c.float()
	if c.opt(`,"cs":`) {
		r.CTAsSkipped = c.int64()
	}
	r.EarlyExit = c.opt(`,"ee":true`)
	r.IntraResumed = c.opt(`,"ir":true`)
	if c.opt(`,"a":`) {
		r.Attempts = c.int()
	}
	c.key("}")
	return r, c.ok && len(c.b) == 0
}

// cursor walks a payload. Once a step fails, ok stays false and every
// later step is a no-op.
type cursor struct {
	b  []byte
	ok bool
}

// opt consumes s if the payload continues with it.
func (c *cursor) opt(s string) bool {
	if c.ok && len(c.b) >= len(s) && string(c.b[:len(s)]) == s {
		c.b = c.b[len(s):]
		return true
	}
	return false
}

// key consumes s, which must come next.
func (c *cursor) key(s string) {
	if !c.opt(s) {
		c.ok = false
	}
}

// integer consumes JSON's integer part, -?(0|[1-9][0-9]*), and returns its
// sign, its digit count and, for at most 19 digits, its magnitude. What
// follows is left to the caller: a fraction or exponent fails the next key
// of an integer field.
func (c *cursor) integer() (u uint64, digits int, neg bool) {
	if !c.ok {
		return 0, 0, false
	}
	b, n := c.b, 0
	if len(b) > 0 && b[0] == '-' {
		neg, n = true, 1
	}
	start := n
	for ; n < len(b) && '0' <= b[n] && b[n] <= '9'; n++ {
		u = u*10 + uint64(b[n]-'0')
	}
	if digits = n - start; digits == 0 || digits > 1 && b[start] == '0' {
		c.ok = false
	}
	c.b = b[n:]
	return u, digits, neg
}

// int64 consumes an integer that fits an int64, as json.Unmarshal reads
// one into an int64 field.
func (c *cursor) int64() int64 {
	u, digits, neg := c.integer()
	if digits > 19 || neg && u > 1<<63 || !neg && u > math.MaxInt64 {
		c.ok = false
	}
	if !c.ok {
		return 0
	}
	if neg {
		return -int64(u)
	}
	return int64(u)
}

// int consumes an integer that fits an int.
func (c *cursor) int() int {
	v := c.int64()
	if int64(int(v)) != v {
		c.ok = false
	}
	return int(v)
}

// uint8 consumes an unsigned integer that fits a uint8. A minus sign is
// refused even on zero, as json.Unmarshal refuses it for unsigned fields.
func (c *cursor) uint8() uint8 {
	if c.ok && len(c.b) > 0 && c.b[0] == '-' {
		c.ok = false
	}
	v := c.int64()
	if v < 0 || v > math.MaxUint8 {
		c.ok = false
	}
	return uint8(v)
}

// float consumes a JSON number that fits a float64, parsed as
// json.Unmarshal parses one: by strconv.ParseFloat.
func (c *cursor) float() float64 {
	text := c.b
	c.integer()
	n := 0 // the fraction and exponent, JSON's (.[0-9]+)?([eE][+-]?[0-9]+)?
	if c.ok && n < len(c.b) && c.b[n] == '.' {
		n = digitsFrom(c.b, n+1, c)
	}
	if c.ok && n < len(c.b) && (c.b[n] == 'e' || c.b[n] == 'E') {
		if n++; n < len(c.b) && (c.b[n] == '+' || c.b[n] == '-') {
			n++
		}
		n = digitsFrom(c.b, n, c)
	}
	if !c.ok {
		return 0
	}
	c.b = c.b[n:]
	f, err := strconv.ParseFloat(string(text[:len(text)-len(c.b)]), 64)
	if err != nil {
		c.ok = false
	}
	return f
}

// digitsFrom returns the end of the run of digits in b starting at n,
// failing c when the run is empty.
func digitsFrom(b []byte, n int, c *cursor) int {
	start := n
	for n < len(b) && '0' <= b[n] && b[n] <= '9' {
		n++
	}
	if n == start {
		c.ok = false
	}
	return n
}
