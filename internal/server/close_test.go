package server

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/model"
	"repro/internal/transformer"
)

// TestValidateRankAddrs pins the fail-fast contract of distributed address
// lists: malformed entries and duplicates are rejected with one named error
// before any rendezvous could hang on them.
func TestValidateRankAddrs(t *testing.T) {
	if err := ValidateRankAddrs([]string{"127.0.0.1:9000", "127.0.0.1:9001"}); err != nil {
		t.Fatalf("valid list rejected: %v", err)
	}
	for _, bad := range [][]string{
		{"127.0.0.1:9000", "127.0.0.1"},             // no port
		{"localhost"},                               // no port at all
		{"127.0.0.1:"},                              // empty port
		{"127.0.0.1:0x50"},                          // non-numeric port
		{"127.0.0.1:70000"},                         // port out of range
		{"127.0.0.1:9000", "127.0.0.1:9000"},        // duplicate
		{":9000"},                                   // empty host
		{"127.0.0.1:9000", "127.0.0.1:9001", "bad"}, // trailing junk
	} {
		if err := ValidateRankAddrs(bad); err == nil {
			t.Errorf("list %v accepted, want error", bad)
		}
	}
	// New (and therefore cpserve -rank-addrs) rejects a bad list before
	// dialing rather than hanging in rendezvous.
	_, err := New(Config{
		Transformer: transformer.Tiny(1),
		RankAddrs:   []string{"127.0.0.1:9000", "nonsense"},
	})
	if err == nil || !strings.Contains(err.Error(), "not host:port") {
		t.Fatalf("New with bad rank addrs = %v, want named validation error", err)
	}
}

// TestServerCloseIdempotentAndOrdered is the ISSUE's shutdown regression:
// Close must be safe to call repeatedly and concurrently (including while
// requests are in flight), and every post-close request — generate,
// prefill, decode, stats, delete — must map to 503/ErrClosed uniformly
// rather than panicking or surfacing internal teardown errors.
func TestServerCloseIdempotentAndOrdered(t *testing.T) {
	srv, err := New(Config{
		Transformer: transformer.Tiny(3),
		Ranks:       2,
		Variant:     model.PassKV,
		TokenBudget: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	post := func(path, body string) (int, string) {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		defer resp.Body.Close()
		buf := make([]byte, 512)
		n, _ := resp.Body.Read(buf)
		return resp.StatusCode, string(buf[:n])
	}

	// Healthy request first, so sessions exist at close time.
	if code, body := post("/v1/generate", `{"session":1,"prompt":[4,19,22,7],"max_tokens":4}`); code != http.StatusOK {
		t.Fatalf("pre-close generate: %d %s", code, body)
	}

	// Hammer Close concurrently with itself and with in-flight requests;
	// none of this may panic or deadlock.
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			srv.Close()
		}()
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			post("/v1/generate", `{"session":9,"prompt":[1,2,3],"max_tokens":2}`)
			http.Get(ts.URL + "/v1/stats")
		}(i)
	}
	wg.Wait()
	srv.Close() // and once more after everything settled

	// Post-close: uniform 503s.
	for _, c := range []struct{ path, body string }{
		{"/v1/generate", `{"session":2,"prompt":[1,2,3],"max_tokens":2}`},
		{"/v1/prefill", `{"session":3,"tokens":[1,2,3]}`},
		{"/v1/decode", `{"session":1,"token":5}`},
	} {
		if code, body := post(c.path, c.body); code != http.StatusServiceUnavailable {
			t.Errorf("post-close POST %s = %d %s, want 503", c.path, code, body)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("post-close stats = %d, want 503", resp.StatusCode)
	}
}
