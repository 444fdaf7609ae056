// Prefixreuse: a load driver for the prefix KV-reuse subsystem. N concurrent
// sessions share one long system prompt (differing only in a short user
// suffix) and one session reconnects for a multi-turn follow-up after its
// DELETE — the two workloads the paper's multi-turn story (§3.3, 85% hit
// rates) is about. A donor session detaches the shared prefix into the
// radix tree on release; every later session adopts it and ring-prefills
// only its miss suffix. The driver verifies every served stream is
// bit-identical to a cold-start reference (a fresh server with prefix reuse
// disabled) and prints the hit rate and TTFT delta the reuse bought.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"sync"

	"repro/internal/model"
	"repro/internal/server"
	"repro/internal/transformer"
)

const (
	ranks     = 2
	seed      = 77
	clients   = 6
	maxTokens = 8
	systemLen = 64 // shared system prompt, a multiple of the chunk budget
	userLen   = 6  // per-session user suffix
	budget    = 16 // chunk budget == prefix-tree block size
)

type genReq struct {
	Session   int   `json:"session"`
	Prompt    []int `json:"prompt"`
	MaxTokens int   `json:"max_tokens"`
}

type genResp struct {
	Tokens []int     `json:"tokens"`
	TTFTMs float64   `json:"ttft_ms"`
	TTITMs []float64 `json:"ttit_ms"`
}

type statsResp struct {
	PrefillSource struct {
		CachedTokens   int64   `json:"cached_tokens"`
		ComputedTokens int64   `json:"computed_tokens"`
		HitRate        float64 `json:"hit_rate"`
	} `json:"prefill_source"`
	Reuse struct {
		Hits           int64 `json:"hits"`
		Detached       int64 `json:"detached"`
		DetachedTokens int64 `json:"detached_tokens"`
	} `json:"reuse"`
}

func newServer(prefixTokens int) (*server.Server, *httptest.Server) {
	srv, err := server.New(server.Config{
		Transformer:       transformer.Tiny(seed),
		Ranks:             ranks,
		Variant:           model.Auto, // Eq. 1 per chunk: warm chunks ride pass-Q
		TokenBudget:       budget,
		PrefixCacheTokens: prefixTokens,
	})
	if err != nil {
		log.Fatal(err)
	}
	return srv, httptest.NewServer(srv.Handler())
}

func generate(ts *httptest.Server, session int, prompt []int) genResp {
	body, _ := json.Marshal(genReq{Session: session, Prompt: prompt, MaxTokens: maxTokens})
	resp, err := http.Post(ts.URL+"/v1/generate", "application/json", bytes.NewReader(body))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("session %d: status %d", session, resp.StatusCode)
	}
	var out genResp
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		log.Fatal(err)
	}
	return out
}

func release(ts *httptest.Server, session int) {
	req, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/v1/session/%d", ts.URL, session), nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()
}

func main() {
	system := make([]int, systemLen)
	for i := range system {
		system[i] = (i*13 + 7) % 64
	}
	prompts := make([][]int, clients)
	for i := range prompts {
		p := append([]int{}, system...)
		for j := 0; j < userLen; j++ {
			p = append(p, (i*17+j*5+3)%64)
		}
		prompts[i] = p
	}

	fmt.Printf("prefix reuse: %d sessions sharing a %d-token system prompt (+%d-token user turns),\n",
		clients, systemLen, userLen)
	fmt.Printf("%d CP ranks, budget/block %d, variant auto\n\n", ranks, budget)

	// Cold references: a server with prefix reuse disabled serves every
	// prompt from scratch.
	coldSrv, coldTS := newServer(-1)
	defer func() { coldTS.Close(); coldSrv.Close() }()
	cold := make([]genResp, clients)
	for i := range prompts {
		cold[i] = generate(coldTS, i, prompts[i])
	}

	// Warm server: session 0 donates the shared prefix on DELETE, then the
	// remaining sessions arrive concurrently.
	warmSrv, warmTS := newServer(1 << 16)
	defer func() { warmTS.Close(); warmSrv.Close() }()
	donor := generate(warmTS, 0, prompts[0])
	release(warmTS, 0)

	warm := make([]genResp, clients)
	var wg sync.WaitGroup
	for i := 1; i < clients; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			warm[id] = generate(warmTS, id, prompts[id])
		}(i)
	}
	wg.Wait()

	// Multi-turn reconnect: session 0 comes back with its whole first turn
	// as context (prompt + served tokens) plus a follow-up.
	turn2 := append(append([]int{}, prompts[0]...), donor.Tokens...)
	turn2 = append(turn2, 1, 2, 3)
	reconnect := generate(warmTS, 0, turn2)
	coldReconnect := generate(coldTS, 100, turn2)

	// Exact verification: warm streams must be bit-identical to cold-start
	// references. Prefill logits are session-id independent, so the cold
	// reconnect reference uses a fresh id and only its first (prefill-
	// produced) token is comparable; decode placement is per-session.
	check := func(name string, got, want []int) {
		for j := range want {
			if got[j] != want[j] {
				log.Fatalf("%s diverged from cold reference: %v != %v", name, got, want)
			}
		}
	}
	warm[0] = donor
	for i := 0; i < clients; i++ {
		check(fmt.Sprintf("session %d", i), warm[i].Tokens, cold[i].Tokens)
	}
	check("reconnect prefill", reconnect.Tokens[:1], coldReconnect.Tokens[:1])
	fmt.Printf("all %d warm streams bit-identical to cold-start references\n\n", clients)

	// Telemetry: hit rate and the TTFT the tree bought.
	resp, err := http.Get(warmTS.URL + "/v1/stats")
	if err != nil {
		log.Fatal(err)
	}
	var st statsResp
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()

	var coldTTFT, warmTTFT float64
	for i := 1; i < clients; i++ {
		coldTTFT += cold[i].TTFTMs
		warmTTFT += warm[i].TTFTMs
	}
	coldTTFT /= clients - 1
	warmTTFT /= clients - 1

	fmt.Println("prefix-reuse telemetry")
	fmt.Println("----------------------")
	fmt.Printf("prefill tokens cached    %6d\n", st.PrefillSource.CachedTokens)
	fmt.Printf("prefill tokens computed  %6d\n", st.PrefillSource.ComputedTokens)
	fmt.Printf("hit rate                 %7.1f%%\n", st.PrefillSource.HitRate*100)
	fmt.Printf("donations                %6d  (%d tokens detached into the tree)\n",
		st.Reuse.Detached, st.Reuse.DetachedTokens)
	fmt.Printf("sibling TTFT             %7.2f ms warm vs %.2f ms cold (%.1fx)\n",
		warmTTFT, coldTTFT, coldTTFT/warmTTFT)
	fmt.Printf("reconnect TTFT           %7.2f ms warm vs %.2f ms cold (%.1fx)\n",
		reconnect.TTFTMs, coldReconnect.TTFTMs, coldReconnect.TTFTMs/reconnect.TTFTMs)

	if st.Reuse.Hits == 0 || st.PrefillSource.CachedTokens == 0 {
		log.Fatal("no prefix reuse observed — subsystem regression?")
	}
	fmt.Println("\nthe shared system prompt was ring-prefilled once and adopted everywhere")
	fmt.Println("else; reconnects resumed from warm KV. That is the multi-turn economics")
	fmt.Println("of §3.3: hit tokens cost a radix-tree walk instead of a ring pass.")
}
