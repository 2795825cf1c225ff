package rosd

import (
	"bytes"
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"ros/internal/obs"
	"ros/internal/rosclient"
)

// TestReadResultWireRoundTrip pins the decode-quality fields' wire contract
// through the client: a BER of exactly 0 stays 0 (never dropped as "no
// value"), and a non-finite value — an undetected pass's SNR — travels as
// null and comes back NaN, not 0.
func TestReadResultWireRoundTrip(t *testing.T) {
	ctx := context.Background()

	t.Run("stub", func(t *testing.T) {
		sent := BatchResponse{Results: []ReadResult{
			{Detected: true, Bits: "1111", SNRdB: 41.5, BER: 0, MedianRSSdBm: -40.25},
			{SNRdB: obs.JSONFloat(math.Inf(-1)), BER: 0.5, MedianRSSdBm: obs.JSONFloat(math.NaN())},
		}}
		rec := httptest.NewRecorder()
		writeJSON(rec, http.StatusOK, sent)
		wire := rec.Body.Bytes()
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			w.Write(wire)
		}))
		defer ts.Close()

		var got BatchResponse
		c := rosclient.New(rosclient.Config{BaseURL: ts.URL})
		if err := c.Do(ctx, "/v1/read", BatchRequest{Reads: []ReadRequest{fastRead(1)}}, &got); err != nil {
			t.Fatal(err)
		}
		for _, want := range []string{`"ber": 0,`, `"snr_db": null`, `"median_rss_dbm": null`} {
			if !bytes.Contains(wire, []byte(want)) {
				t.Errorf("wire body lacks %s:\n%s", want, wire)
			}
		}
		if len(got.Results) != 2 {
			t.Fatalf("got %d results, want 2", len(got.Results))
		}
		ok, undetected := got.Results[0], got.Results[1]
		if ber := float64(ok.BER); ber != 0 || math.IsNaN(ber) {
			t.Errorf("BER 0 round-tripped to %v", ber)
		}
		if ok.SNRdB != 41.5 || ok.MedianRSSdBm != -40.25 {
			t.Errorf("finite fields round-tripped to %v / %v", ok.SNRdB, ok.MedianRSSdBm)
		}
		if !math.IsNaN(float64(undetected.SNRdB)) || !math.IsNaN(float64(undetected.MedianRSSdBm)) {
			t.Errorf("non-finite fields round-tripped to %v / %v, want NaN", undetected.SNRdB, undetected.MedianRSSdBm)
		}
		if undetected.BER != 0.5 {
			t.Errorf("BER 0.5 round-tripped to %v", undetected.BER)
		}
	})

	t.Run("server", func(t *testing.T) {
		srv := New(Config{})
		defer srv.Close()
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()

		// 12 m is outside the detectable envelope: the pass completes
		// with no tag and an SNR of -Inf.
		far := fastRead(1)
		far.Standoff = 12
		var got BatchResponse
		c := rosclient.New(rosclient.Config{BaseURL: ts.URL})
		if err := c.Do(ctx, "/v1/read", BatchRequest{Reads: []ReadRequest{far}}, &got); err != nil {
			t.Fatal(err)
		}
		if len(got.Results) != 1 {
			t.Fatalf("got %d results, want 1", len(got.Results))
		}
		r := got.Results[0]
		if r.Detected {
			t.Fatalf("read at 12 m detected a tag: %+v", r)
		}
		if !math.IsNaN(float64(r.SNRdB)) {
			t.Errorf("undetected read's SNR came back %v, want NaN", r.SNRdB)
		}
	})
}
