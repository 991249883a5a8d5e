package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
	"time"

	"stmaker/internal/geo"
	"stmaker/internal/racedetect"
	"stmaker/internal/traj"
)

// canonicalBody returns json.Marshal's encoding of a request for a
// trajectory of n samples a second apart: the shape clients send.
func canonicalBody(tb testing.TB, n int) []byte {
	tb.Helper()
	raw := &traj.Raw{ID: "trip-1", Object: "taxi-7", Samples: make([]traj.Sample, n)}
	t0 := time.Date(2013, 11, 2, 9, 0, 0, 0, time.UTC)
	for i := range raw.Samples {
		raw.Samples[i] = traj.Sample{
			Pt: geo.Point{Lat: 39.9 + float64(i)*1.37e-5, Lng: 116.3 + float64(i)*2.11e-5},
			T:  t0.Add(time.Duration(i) * time.Second),
		}
	}
	body, err := json.Marshal(SummarizeRequest{Trajectory: raw})
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

const (
	sampleA = `{"pt":{"Lat":39.9,"Lng":116.3},"t":"2013-11-02T09:00:00Z"}`
	sampleB = `{"pt":{"Lat":39.91,"Lng":116.31},"t":"2013-11-02T09:00:05Z"}`
	trajAB  = `{"id":"a","object":"o","samples":[` + sampleA + `,` + sampleB + `]}`
)

// decodeCases are bodies the scan must accept (fast) or decline to
// encoding/json; FuzzDecodeRequest starts from them.
var decodeCases = []struct {
	name, body string
	fast       bool
}{
	{"canonical", `{"trajectory":` + trajAB + `}`, true},
	{"k and region", `{"trajectory":` + trajAB + `,"k":3,"region":"citya"}`, true},
	{"whitespace", " \n{ \"trajectory\" :\t{\"samples\" : [ ] } , \"k\" : 2 }\r\n", true},
	{"empty object", `{}`, true},
	{"empty samples", `{"trajectory":{"id":"a","samples":[]}}`, true},
	{"offset zone", `{"trajectory":{"samples":[{"t":"2013-11-02T09:00:00+08:00"}]}}`, true},
	{"fractional seconds", `{"trajectory":{"samples":[{"t":"2013-11-02T09:00:00.123456789Z"}]}}`, true},
	{"negative zero", `{"trajectory":{"samples":[{"pt":{"Lat":-0,"Lng":-0.0}}]},"k":-0}`, true},
	{"exponent", `{"trajectory":{"samples":[{"pt":{"Lat":3.99E+1,"Lng":1.163e2}}]}}`, true},
	{"trailing bytes", `{"trajectory":` + trajAB + `} trailing {garbage`, true},
	{"batch", `{"items":[{"trajectory":` + trajAB + `},{"trajectory":` + trajAB + `,"k":2}],"k":1,"region":"citya"}`, true},
	{"empty batch", `{"items":[]}`, true},

	{"empty body", ``, false},
	{"not an object", `[1,2]`, false},
	{"unknown key", `{"trajectory":` + trajAB + `,"extra":1}`, false},
	{"case-folded key", `{"Trajectory":` + trajAB + `}`, false},
	{"case-folded point key", `{"trajectory":{"samples":[{"pt":{"lat":39.9,"lng":116.3}}]}}`, false},
	{"repeated key", `{"k":1,"k":2}`, false},
	{"repeated trajectory", `{"trajectory":` + trajAB + `,"trajectory":{"id":"b"}}`, false},
	{"null trajectory", `{"trajectory":null}`, false},
	{"null samples", `{"trajectory":{"samples":null}}`, false},
	{"escape", `{"trajectory":{"id":"a\"b"}}`, false},
	{"unicode escape", `{"region":"city\u0061"}`, false},
	{"non-ASCII", `{"region":"citya–é"}`, false},
	{"invalid UTF-8", "{\"region\":\"\xff\"}", false},
	{"control byte", "{\"region\":\"a\tb\"}", false},
	{"fractional k", `{"k":1.0}`, false},
	{"exponent k", `{"k":1e2}`, false},
	{"huge k", `{"k":99999999999999999999}`, false},
	{"out of range", `{"trajectory":{"samples":[{"pt":{"Lat":1e400}}]}}`, false},
	{"leading zero", `{"k":01}`, false},
	{"bare minus", `{"k":-}`, false},
	{"string k", `{"k":"2"}`, false},
	{"bad timestamp", `{"trajectory":{"samples":[{"t":"yesterday"}]}}`, false},
	{"number timestamp", `{"trajectory":{"samples":[{"t":5}]}}`, false},
	{"trailing comma", `{"trajectory":{"samples":[` + sampleA + `,]}}`, false},
	{"missing comma", `{"k":1 "region":"a"}`, false},
	{"truncated", `{"trajectory":{"id":"a","samples":[` + sampleA, false},
}

// sameDecode reports how a decoder's result differs from encoding/json's
// on b, or "" when value and error text agree.
func sameDecode[T any](b []byte, decode func([]byte, *T) error) string {
	var got, want T
	gotErr := decode(b, &got)
	wantErr := json.NewDecoder(bytes.NewReader(b)).Decode(&want)
	if errText(gotErr) != errText(wantErr) {
		return fmt.Sprintf("error %q, encoding/json %q", errText(gotErr), errText(wantErr))
	}
	if !reflect.DeepEqual(got, want) {
		g, _ := json.Marshal(got) // a diagnostic: the values differ either way
		w, _ := json.Marshal(want)
		return fmt.Sprintf("value %s, encoding/json %s", g, w)
	}
	return ""
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestDecodeRequestCases pins which bodies take the scan: every decline
// class of the decoder's contract falls back, and the canonical shapes,
// single and batch, do not. FuzzDecodeRequest's seeds check that both
// kinds decode as encoding/json decodes them.
func TestDecodeRequestCases(t *testing.T) {
	for _, c := range decodeCases {
		var req SummarizeRequest
		single := scan([]byte(c.body), func(p *reqParser) bool { return p.request(&req) })
		var breq BatchRequest
		batch := scan([]byte(c.body), func(p *reqParser) bool { return p.batch(&breq) })
		if (single || batch) != c.fast {
			t.Errorf("%s: scan accepted single %v, batch %v; want fast %v", c.name, single, batch, c.fast)
		}
	}
}

// FuzzDecodeRequest feeds arbitrary bytes in as a single body and as a
// batch body: both decoders must return what encoding/json's Decoder
// returns into a zero value, the same value and the same error text.
func FuzzDecodeRequest(f *testing.F) {
	for _, c := range decodeCases {
		f.Add([]byte(c.body))
	}
	f.Add(canonicalBody(f, 3))
	f.Fuzz(func(t *testing.T, b []byte) {
		if diff := sameDecode(b, DecodeSummarizeRequest); diff != "" {
			t.Fatalf("single body %q: %s", b, diff)
		}
		if diff := sameDecode(b, decodeBatchRequest); diff != "" {
			t.Fatalf("batch body %q: %s", b, diff)
		}
	})
}

// TestDecodeRequestAllocs guards the scan's allocation count: a
// canonical body allocates the trajectory, its two strings and one
// exact-size sample slice, however many samples it carries.
func TestDecodeRequestAllocs(t *testing.T) {
	if racedetect.Enabled() {
		t.Skip("the race detector's sync.Pool drops pooled scratch at random")
	}
	var counts []float64
	for _, n := range []int{50, 500} {
		body := canonicalBody(t, n)
		var req SummarizeRequest
		decode := func() {
			req = SummarizeRequest{}
			if err := DecodeSummarizeRequest(body, &req); err != nil || len(req.Trajectory.Samples) != n {
				t.Fatalf("decode of %d samples: %v", n, err)
			}
		}
		decode() // warm the pool
		counts = append(counts, testing.AllocsPerRun(20, decode))
	}
	if counts[0] != 4 || counts[1] != 4 {
		t.Fatalf("decoding 50 and 500 samples allocates %v and %v times, want 4 each", counts[0], counts[1])
	}
}

// BenchmarkDecodeRequest measures the request decode layer on its own:
// the scan against encoding/json on one canonical body.
func BenchmarkDecodeRequest(b *testing.B) {
	body := canonicalBody(b, 50)
	b.Run("scan", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var req SummarizeRequest
			if err := DecodeSummarizeRequest(body, &req); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var req SummarizeRequest
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
				b.Fatal(err)
			}
		}
	})
}
