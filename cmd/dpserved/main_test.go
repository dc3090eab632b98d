package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"sublineardp/internal/serve"
	"sublineardp/internal/wire"
)

// TestConfigFromArgs pins the flag wiring: every serving knob reaches
// the Config field it claims to.
func TestConfigFromArgs(t *testing.T) {
	cfg, addr, err := configFromArgs([]string{
		"-addr", "127.0.0.1:9999",
		"-engine", "hlv-banded",
		"-maxn", "512",
		"-queue", "7",
		"-max-batch", "9",
		"-cache", "11",
		"-timeout", "3s",
	})
	if err != nil {
		t.Fatal(err)
	}
	if addr != "127.0.0.1:9999" {
		t.Errorf("addr = %q", addr)
	}
	want := serve.Config{
		Engine: "hlv-banded", MaxN: 512, MaxNHeavy: 64, MaxWorkers: 256,
		QueueDepth: 7, MaxBatch: 9,
		CacheCapacity: 11, RequestTimeout: 3 * time.Second,
	}
	if cfg != want {
		t.Errorf("cfg = %+v, want %+v", cfg, want)
	}
	if _, _, err := configFromArgs([]string{"-queue", "elephants"}); err == nil {
		t.Error("bad flag value accepted")
	}
}

// TestServerSmoke boots the exact stack main mounts and solves one
// request through it.
func TestServerSmoke(t *testing.T) {
	cfg, _, err := configFromArgs(nil)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	body, _ := json.Marshal(&wire.Request{
		Kind: wire.KindMatrixChain, Dims: []int{30, 35, 15, 5, 10, 20, 25}})
	resp, err := http.Post(hs.URL+"/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var wr wire.Response
	if err := json.NewDecoder(resp.Body).Decode(&wr); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || wr.Cost != 15125 {
		t.Fatalf("status %d cost %d, want 200 / 15125", resp.StatusCode, wr.Cost)
	}

	mresp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(mresp.Body)
	mresp.Body.Close()
	if !strings.Contains(buf.String(), "dpserved_responses_ok_total 1") {
		t.Error("metrics did not record the solve")
	}
}
