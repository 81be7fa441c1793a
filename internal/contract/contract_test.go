package contract

import (
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

func mustNew(t *testing.T, knots, comps []float64) *PiecewiseLinear {
	t.Helper()
	c, err := New(knots, comps)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return c
}

func TestNewValid(t *testing.T) {
	c := mustNew(t, []float64{0, 1, 2}, []float64{0, 3, 5})
	if c.Pieces() != 2 {
		t.Errorf("Pieces = %d, want 2", c.Pieces())
	}
	if c.Slope(1) != 3 || c.Slope(2) != 2 {
		t.Errorf("slopes = %v, %v; want 3, 2", c.Slope(1), c.Slope(2))
	}
	if c.Increment(2) != 2 {
		t.Errorf("Increment(2) = %v, want 2", c.Increment(2))
	}
	if c.MaxComp() != 5 {
		t.Errorf("MaxComp = %v, want 5", c.MaxComp())
	}
}

func TestNewErrors(t *testing.T) {
	tests := []struct {
		name    string
		knots   []float64
		comps   []float64
		wantErr error
	}{
		{"length mismatch", []float64{0, 1}, []float64{0}, ErrBadShape},
		{"too few knots", []float64{0}, []float64{0}, ErrBadShape},
		{"NaN knot", []float64{0, math.NaN()}, []float64{0, 1}, ErrBadShape},
		{"Inf comp", []float64{0, 1}, []float64{0, math.Inf(1)}, ErrBadShape},
		{"negative comp", []float64{0, 1}, []float64{-1, 0}, ErrBadShape},
		{"non-increasing knots", []float64{0, 0}, []float64{0, 1}, ErrNotMonotone},
		{"decreasing comps", []float64{0, 1}, []float64{2, 1}, ErrNotMonotone},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := New(tt.knots, tt.comps); !errors.Is(err, tt.wantErr) {
				t.Errorf("err = %v, want %v", err, tt.wantErr)
			}
		})
	}
}

func TestEvalInterpolation(t *testing.T) {
	c := mustNew(t, []float64{0, 2, 4}, []float64{1, 3, 3.5})
	tests := []struct {
		q, want float64
	}{
		{-1, 1}, // below range: x0
		{0, 1},  // left edge
		{1, 2},  // middle of first piece
		{2, 3},  // interior knot
		{3, 3.25},
		{4, 3.5},  // right edge
		{10, 3.5}, // beyond range: flat
	}
	for _, tt := range tests {
		if got := c.Eval(tt.q); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("Eval(%v) = %v, want %v", tt.q, got, tt.want)
		}
	}
}

func TestEvalManyPiecesBinarySearch(t *testing.T) {
	// Build a 100-piece contract and cross-check binary search against a
	// linear scan.
	n := 101
	knots := make([]float64, n)
	comps := make([]float64, n)
	for i := range knots {
		knots[i] = float64(i) * 0.7
		comps[i] = math.Sqrt(float64(i))
	}
	c := mustNew(t, knots, comps)
	linear := func(q float64) float64 {
		if q <= knots[0] {
			return comps[0]
		}
		for l := 1; l < n; l++ {
			if q < knots[l] {
				a := (comps[l] - comps[l-1]) / (knots[l] - knots[l-1])
				return comps[l-1] + a*(q-knots[l-1])
			}
		}
		return comps[n-1]
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		q := rng.Float64()*90 - 10
		if got, want := c.Eval(q), linear(q); math.Abs(got-want) > 1e-12 {
			t.Fatalf("Eval(%v) = %v, linear scan %v", q, got, want)
		}
	}
}

func TestCopySemantics(t *testing.T) {
	knots := []float64{0, 1}
	comps := []float64{0, 1}
	c := mustNew(t, knots, comps)
	knots[1] = 99
	comps[1] = 99
	if c.Knot(1) != 1 || c.Comp(1) != 1 {
		t.Error("contract shares caller's backing arrays")
	}
	ks := c.Knots()
	ks[0] = -5
	if c.Knot(0) != 0 {
		t.Error("Knots() exposes internal state")
	}
}

func TestSlopePanicsOutOfRange(t *testing.T) {
	c := mustNew(t, []float64{0, 1}, []float64{0, 1})
	for _, l := range []int{0, 2, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Slope(%d): want panic", l)
				}
			}()
			c.Slope(l)
		}()
	}
}

func TestJSONRoundTrip(t *testing.T) {
	c := mustNew(t, []float64{0, 1.5, 2.25}, []float64{0.5, 2, 2})
	data, err := json.Marshal(c)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	var back PiecewiseLinear
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if !c.Equal(&back) {
		t.Errorf("round trip mismatch: %v vs %v", c, &back)
	}
}

func TestJSONRejectsInvalid(t *testing.T) {
	var c PiecewiseLinear
	if err := json.Unmarshal([]byte(`{"knots":[0,1],"comps":[2,1]}`), &c); err == nil {
		t.Error("decreasing comps accepted by UnmarshalJSON")
	}
	if err := json.Unmarshal([]byte(`{bad json`), &c); err == nil {
		t.Error("malformed JSON accepted")
	}
}

func TestFlat(t *testing.T) {
	c, err := Flat(0, 10, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []float64{-1, 0, 5, 10, 20} {
		if c.Eval(q) != 2.5 {
			t.Errorf("Flat.Eval(%v) = %v, want 2.5", q, c.Eval(q))
		}
	}
	if _, err := Flat(0, 1, -1); err == nil {
		t.Error("negative flat: want error")
	}
}

func TestBuilder(t *testing.T) {
	b := NewBuilder(0, 0)
	b.AppendSlope(2, 1.5) // x = 3
	b.AppendSlope(3, 0)   // flat
	if b.Len() != 3 {
		t.Errorf("Len = %d, want 3", b.Len())
	}
	c, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if c.Comp(1) != 3 || c.Comp(2) != 3 {
		t.Errorf("comps = %v, want [0 3 3]", c.Comps())
	}
}

func TestBuilderInvalid(t *testing.T) {
	b := NewBuilder(0, 1)
	b.AppendSlope(1, -2) // drives compensation negative and decreasing
	if _, err := b.Build(); err == nil {
		t.Error("Build with negative slope: want error")
	}
}

func TestEqual(t *testing.T) {
	a := mustNew(t, []float64{0, 1}, []float64{0, 1})
	b := mustNew(t, []float64{0, 1}, []float64{0, 1})
	c := mustNew(t, []float64{0, 1, 2}, []float64{0, 1, 2})
	d := mustNew(t, []float64{0, 1}, []float64{0, 2})
	if !a.Equal(b) {
		t.Error("identical contracts not Equal")
	}
	if a.Equal(c) || a.Equal(d) {
		t.Error("different contracts reported Equal")
	}
}

func TestStringNonEmpty(t *testing.T) {
	if mustNew(t, []float64{0, 1}, []float64{0, 1}).String() == "" {
		t.Error("String empty")
	}
}

// Property: Eval is monotone non-decreasing in q and bounded by [x0, xm].
func TestEvalMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 2 + rng.Intn(10)
		knots := make([]float64, m+1)
		comps := make([]float64, m+1)
		knots[0] = rng.Float64()
		comps[0] = rng.Float64()
		for i := 1; i <= m; i++ {
			knots[i] = knots[i-1] + 0.01 + rng.Float64()
			comps[i] = comps[i-1] + rng.Float64()
		}
		c, err := New(knots, comps)
		if err != nil {
			return false
		}
		qs := make([]float64, 50)
		for i := range qs {
			qs[i] = knots[0] - 1 + rng.Float64()*(knots[m]-knots[0]+2)
		}
		sort.Float64s(qs)
		prev := math.Inf(-1)
		for _, q := range qs {
			v := c.Eval(q)
			if v < prev-1e-12 || v < comps[0]-1e-12 || v > comps[m]+1e-12 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: Eval reproduces the knot compensations exactly at knots.
func TestEvalKnotExactnessProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 1 + rng.Intn(8)
		knots := make([]float64, m+1)
		comps := make([]float64, m+1)
		for i := 1; i <= m; i++ {
			knots[i] = knots[i-1] + 0.5 + rng.Float64()
			comps[i] = comps[i-1] + rng.Float64()*2
		}
		c, err := New(knots, comps)
		if err != nil {
			return false
		}
		for i := range knots {
			if math.Abs(c.Eval(knots[i])-comps[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// jsonEdgeFloats are the values where encoding/json's float format
// turns: ±0, both sides of the 1e-6 and 1e21 cut-offs between plain and
// exponent form, subnormals, the largest float64 and one-digit negative
// exponents (written 1e-7, not strconv's 1e-07).
var jsonEdgeFloats = []float64{
	0, math.Copysign(0, -1), 1, 0.1, 123456.789, 1.0 / 3,
	1e-6, math.Nextafter(1e-6, 0), 9.999999e-7, 1e-7, 3e-9, 5e-10, 1.5e-10,
	1e21, math.Nextafter(1e21, 0), 999999999999999999999, 1e20, 1.2345e22,
	5e-324, math.SmallestNonzeroFloat64 * 3, 2.2250738585072014e-308, math.Nextafter(2.2250738585072014e-308, 0),
	math.MaxFloat64, 1e308, 1e-300,
}

// checkContractJSON fails t unless AppendJSON (twice: the first call
// fills the encoding memo, the second copies it), MarshalJSON and
// json.Marshal of c all write json.Marshal(contractJSON{…})'s bytes, and
// unless MarshalJSON hands out a copy that a caller may overwrite without
// changing the next encoding.
func checkContractJSON(t *testing.T, c *PiecewiseLinear) {
	t.Helper()
	want, err := json.Marshal(contractJSON{Knots: c.knots, Comps: c.comps})
	if err != nil {
		t.Fatal(err)
	}
	prefix := []byte("prefix")
	for range 2 {
		if got := c.AppendJSON(prefix[:len(prefix):len(prefix)]); string(got) != "prefix"+string(want) {
			t.Fatalf("AppendJSON writes %s, want prefix%s", got, want)
		}
	}
	if n := c.JSONLen(); n != len(want) {
		t.Fatalf("JSONLen = %d, want %d", n, len(want))
	}
	got, err := c.MarshalJSON()
	if err != nil || string(got) != string(want) {
		t.Fatalf("MarshalJSON writes %s (%v), want %s", got, err, want)
	}
	for i := range got {
		got[i] = 'x'
	}
	if got, err := json.Marshal(c); err != nil || string(got) != string(want) {
		t.Fatalf("json.Marshal writes %s (%v), want %s", got, err, want)
	}
}

// TestUnmarshalJSONClearsMemo pins that decoding into a contract that
// has already been encoded replaces its encoding too.
func TestUnmarshalJSONClearsMemo(t *testing.T) {
	c := mustNew(t, []float64{0, 1, 2}, []float64{0, 0.5, 1.5})
	checkContractJSON(t, c)
	if err := json.Unmarshal([]byte(`{"knots":[1,2.5],"comps":[3,1e-7]}`), c); err == nil {
		t.Fatal("decoded decreasing compensations")
	}
	checkContractJSON(t, c) // a refused payload leaves the contract as it was
	if err := json.Unmarshal([]byte(`{"knots":[1,2.5],"comps":[3,4e21]}`), c); err != nil {
		t.Fatal(err)
	}
	if want := `{"knots":[1,2.5],"comps":[3,4e+21]}`; string(c.AppendJSON(nil)) != want {
		t.Fatalf("after decoding, AppendJSON writes %s, want %s", c.AppendJSON(nil), want)
	}
	checkContractJSON(t, c)
}

// TestContractJSONConcurrentFirstEncode has many goroutines encode one
// fresh contract at once (run it with -race): the racing first encoders
// each store the memo, and every output must be the same bytes.
func TestContractJSONConcurrentFirstEncode(t *testing.T) {
	knots, comps := make([]float64, 21), make([]float64, 21)
	for i := range knots {
		knots[i], comps[i] = 1+float64(i)/3, float64(i*i)/7
	}
	want, err := json.Marshal(contractJSON{Knots: knots, Comps: comps})
	if err != nil {
		t.Fatal(err)
	}
	for range 20 {
		c := mustNew(t, knots, comps)
		const workers = 8
		outs := make([][]byte, workers)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for w := range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				switch w % 3 {
				case 0:
					outs[w] = c.AppendJSON(nil)
				case 1:
					outs[w], _ = c.MarshalJSON()
				default:
					outs[w] = c.AppendJSON(make([]byte, 0, c.JSONLen()))
				}
			}()
		}
		close(start)
		wg.Wait()
		for w, out := range outs {
			if string(out) != string(want) {
				t.Fatalf("encoder %d wrote %s, want %s", w, out, want)
			}
		}
	}
}

// TestAppendJSONMemoizedAllocs pins that once a contract is encoded,
// AppendJSON into a buffer with room, and JSONLen, allocate nothing.
func TestAppendJSONMemoizedAllocs(t *testing.T) {
	c := mustNew(t, []float64{0, 0.25, 1.5, 7}, []float64{0, 1.0 / 3, 2, 2})
	buf := make([]byte, 0, c.JSONLen())
	if n := testing.AllocsPerRun(100, func() { buf = c.AppendJSON(buf[:0]) }); n != 0 {
		t.Errorf("memoized AppendJSON allocates %v times", n)
	}
	if n := testing.AllocsPerRun(100, func() { _ = c.JSONLen() }); n != 0 {
		t.Errorf("memoized JSONLen allocates %v times", n)
	}
}

// TestAppendJSONMatchesReflection pins AppendJSON to the reflection
// encoding on every edge value, each sign, and on nil slices.
func TestAppendJSONMatchesReflection(t *testing.T) {
	var signed []float64
	for _, v := range jsonEdgeFloats {
		signed = append(signed, v, -v)
	}
	reversed := make([]float64, len(signed))
	for i, v := range signed {
		reversed[len(signed)-1-i] = v
	}
	checkContractJSON(t, &PiecewiseLinear{knots: signed, comps: reversed})
	checkContractJSON(t, &PiecewiseLinear{})
	checkContractJSON(t, &PiecewiseLinear{knots: []float64{}, comps: []float64{1e-7}})
	c, err := New([]float64{0, 1e-7, 0.5, 1e21}, []float64{0, 0, 2.5e-9, 1e300})
	if err != nil {
		t.Fatal(err)
	}
	checkContractJSON(t, c)
	// Random bit patterns reach every exponent and digit count.
	rng := rand.New(rand.NewSource(1))
	bits := make([]float64, 0, 2000)
	for len(bits) < cap(bits) {
		if v := math.Float64frombits(rng.Uint64()); !math.IsNaN(v) && !math.IsInf(v, 0) {
			bits = append(bits, v)
		}
	}
	checkContractJSON(t, &PiecewiseLinear{knots: bits[:1000], comps: bits[1000:]})
}

// BenchmarkContractAppendJSON times encoding an m = 20 contract, the
// design route's shape: first formats every float (the memo is cleared
// each iteration), memoized copies the stored encoding.
func BenchmarkContractAppendJSON(b *testing.B) {
	knots, comps := make([]float64, 21), make([]float64, 21)
	for i := range knots {
		knots[i], comps[i] = 1+0.0371*float64(i)*(43-float64(i)), 0.513*float64(i*i)/7
	}
	c, err := New(knots, comps)
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 0, c.JSONLen())
	b.Run("first", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			c.enc.Store(nil)
			buf = c.AppendJSON(buf[:0])
		}
	})
	b.Run("memoized", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			buf = c.AppendJSON(buf[:0])
		}
	})
}
