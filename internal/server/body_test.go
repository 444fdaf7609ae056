package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// decodeWith runs decodePost on body and returns the decoded request as
// text, or the response it wrote instead.
func decodeWith[T any](body string) (string, *T) {
	var req T
	rec := httptest.NewRecorder()
	if !decodePost(rec, httptest.NewRequest(http.MethodPost, "/", strings.NewReader(body)), &req) {
		return fmt.Sprintf("%d %s", rec.Code, rec.Body.Bytes()), nil
	}
	return fmt.Sprintf("%+v", req), &req
}

// streamDecode is what a json.Decoder makes of body, in decodeWith's terms:
// the request handlers decoded their bodies this way before they read them
// whole, into these types. They are declared here, under the handlers'
// names (which encoding/json's errors quote), so that the oracle does not
// move when the handlers' types do.
func streamDecode(body string, prefill bool) string {
	type prefillRequest struct {
		Session   int    `json:"session"`
		Tokens    []int  `json:"tokens"`
		NoCache   bool   `json:"no_cache,omitempty"`
		TimeoutMs int    `json:"timeout_ms,omitempty"`
		Cohort    string `json:"cohort,omitempty"`
	}
	type generateRequest struct {
		Session   int    `json:"session"`
		Prompt    []int  `json:"prompt"`
		MaxTokens int    `json:"max_tokens"`
		NoCache   bool   `json:"no_cache,omitempty"`
		TimeoutMs int    `json:"timeout_ms,omitempty"`
		Cohort    string `json:"cohort,omitempty"`
	}
	var req any = &generateRequest{}
	if prefill {
		req = &prefillRequest{}
	}
	if err := json.NewDecoder(strings.NewReader(body)).Decode(req); err != nil {
		rec := httptest.NewRecorder()
		writeErr(rec, http.StatusBadRequest, "bad json: %v", err)
		return fmt.Sprintf("%d %s", rec.Code, rec.Body.Bytes())
	}
	return strings.TrimPrefix(fmt.Sprintf("%+v", req), "&")
}

// Every body that holds one JSON object decodes as a json.Decoder decoded
// it — the same request, or the same 400 with the same text — and a token
// array that decodes lands in a slice of exactly its length. The bodies
// include two type errors in one object (encoding/json names the first;
// a token list that decoded itself would name its own), case-folded and
// repeated keys, and arrays that only look like token lists.
func TestDecodePostMatchesStreamDecoder(t *testing.T) {
	tokens := []string{
		`[1,2,3]`, `[ 4 , 5 ]`, `[7]`, `[]`, `[ ]`, `null`, `"abc"`, `{}`, `3`,
		`[1,"a",3]`, `[1.5]`, `[1e3]`, `[1e30]`, `[-0]`, `[[1,2],[3]]`, `["a,b,c,d"]`,
		`[1,null,2]`, `[true]`,
	}
	var bodies []string
	for _, arr := range tokens {
		bodies = append(bodies,
			`{"session":3,"tokens":`+arr+`,"no_cache":true}`,
			`{"session":"x","tokens":`+arr+`}`,
			`{"cohort":5,"tokens":`+arr+`,"prompt":`+arr+`,"max_tokens":1}`,
			`{"TOKENS":`+arr+`,"session":2}`+"\n",
			`{"tokens":[9,9,9,9,9,9],"tokens":`+arr+`}`,
			`{"session":4,"prompt":`+arr+`,"max_tokens":2,"cohort":"chat"}`,
			`{"prompt":`+arr+`,"max_tokens":"many"}`,
		)
	}
	bodies = append(bodies, `{}`, `{"session":1}`, " \t{\"tokens\":[1]}\r\n ")
	check := func(body, got, want string, toks []int) {
		t.Helper()
		if got != want {
			t.Errorf("body %s decoded as\n\t%s\nwant\n\t%s", body, got, want)
		}
		// A repeated key decodes both arrays into one slice, sized for
		// the longer.
		if len(toks) > 0 && cap(toks) != len(toks) && !strings.HasPrefix(body, `{"tokens":[9,9,9,9,9,9]`) {
			t.Errorf("body %s: %d tokens in a slice of capacity %d", body, len(toks), cap(toks))
		}
	}
	for _, body := range bodies {
		got, pre := decodeWith[prefillRequest](body)
		var toks []int
		if pre != nil {
			toks = pre.Tokens
		}
		check(body, got, streamDecode(body, true), toks)
		got, gen := decodeWith[generateRequest](body)
		toks = nil
		if gen != nil {
			toks = gen.Prompt
		}
		check(body, got, streamDecode(body, false), toks)
	}
}

// A body is one JSON value: whitespace may follow it, anything else is a 400
// naming the stray byte. A json.Decoder stopped at the end of the first
// value and let the rest through.
func TestTrailingBytesAreRejected(t *testing.T) {
	_, ts := newTestServer(t)
	for _, tc := range []struct {
		tail string
		code int
	}{
		{"", http.StatusOK},
		{"\n", http.StatusOK},
		{" \r\n\t ", http.StatusOK},
		{"x", http.StatusBadRequest},
		{" {}", http.StatusBadRequest},
		{"\n[1]", http.StatusBadRequest},
	} {
		body := `{"session":1,"tokens":[1,2,3],"no_cache":true}` + tc.tail
		resp, err := http.Post(ts.URL+"/v1/prefill", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var reply map[string]any
		err = json.NewDecoder(resp.Body).Decode(&reply)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != tc.code {
			t.Fatalf("tail %q: status %d, want %d: %v", tc.tail, resp.StatusCode, tc.code, reply)
		}
		if tc.code != http.StatusOK {
			if msg, _ := reply["error"].(string); !strings.Contains(msg, "after top-level value") {
				t.Errorf("tail %q: error %q does not name the trailing bytes", tc.tail, msg)
			}
			continue
		}
		req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/session/1", nil)
		if err != nil {
			t.Fatal(err)
		}
		del, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		del.Body.Close()
		if del.StatusCode != http.StatusOK {
			t.Fatalf("DELETE after tail %q: status %d", tc.tail, del.StatusCode)
		}
	}
}

// readBody reads a body whole whether it declares its length truly, not at
// all, too long or too short, and across reads of any size.
func TestReadBodyWhateverTheDeclaredLength(t *testing.T) {
	for _, n := range []int{0, 1, 511, 512, 513, 4096, maxBodyHint - 1, maxBodyHint, maxBodyHint + 1, 3*maxBodyHint + 7} {
		body := bytes.Repeat([]byte("0123456789"), n/10+1)[:n]
		for _, declared := range []int64{-1, 0, int64(n), int64(n) / 2, int64(n) + 1, 1 << 30} {
			r := httptest.NewRequest(http.MethodPost, "/", nil)
			r.Body = http.NoBody
			if n > 0 {
				r.Body = &dribble{b: body}
			}
			r.ContentLength = declared
			got, err := readBody(r)
			if err != nil || !bytes.Equal(got, body) {
				t.Fatalf("%d bytes declared as %d: read %d bytes, err %v", n, declared, len(got), err)
			}
		}
	}
}

// dribble hands out its bytes at most 1000 at a time.
type dribble struct{ b []byte }

func (d *dribble) Read(p []byte) (int, error) {
	if len(d.b) == 0 {
		return 0, io.EOF
	}
	n := copy(p[:min(len(p), 1000)], d.b)
	d.b = d.b[n:]
	return n, nil
}

func (d *dribble) Close() error { return nil }
