package main

import (
	"encoding/json"
	"hash/fnv"
	"math/rand"
)

// Request is one generated client request. The prefill body is marshalled
// while the inputs are built, so the measured phase allocates nothing for it.
type Request struct {
	Session     int
	Prompt      []int
	PrefillBody []byte
}

// RoundInputs is everything one round sends: the warm-up request and each
// client's request list.
type RoundInputs struct {
	Warm    Request
	Clients [][]Request
}

type prefillBody struct {
	Session int   `json:"session"`
	Tokens  []int `json:"tokens"`
	NoCache bool  `json:"no_cache,omitempty"`
}

type generateBody struct {
	Session   int   `json:"session"`
	Prompt    []int `json:"prompt"`
	MaxTokens int   `json:"max_tokens"`
}

// genInputs expands (workload, seed) into every round's requests. Token ids
// come from one PRNG seeded by the run seed and the workload name, drawn in
// a fixed order, so equal seeds give byte-identical request sets and the
// four workloads of one run never share prompts.
func genInputs(e Env, w Workload, seed int64, rounds int) []RoundInputs {
	h := fnv.New64a()
	h.Write([]byte(w.Name))
	rng := rand.New(rand.NewSource(seed ^ int64(h.Sum64()>>1)))
	vocab := e.Model.Model.VocabSize
	draw := func(n int) []int {
		out := make([]int, n)
		for i := range out {
			out[i] = rng.Intn(vocab)
		}
		return out
	}
	corpus := draw(w.Shared)
	request := func(session int) Request {
		prompt := append(append(make([]int, 0, w.Prompt), corpus...), draw(w.Prompt-w.Shared)...)
		body, err := json.Marshal(prefillBody{Session: session, Tokens: prompt, NoCache: w.NoCache})
		if err != nil {
			panic(err) // ints and bools always marshal
		}
		return Request{Session: session, Prompt: prompt, PrefillBody: body}
	}
	out := make([]RoundInputs, rounds)
	for r := range out {
		// Session ids restart every round (each round has a fresh server);
		// they feed the decode owner-rotation hash, so keeping them equal
		// across rounds keeps the fused batch's ring blocks equal too.
		next := 1
		out[r].Warm = request(next)
		out[r].Clients = make([][]Request, w.Clients)
		for c := range out[r].Clients {
			for i := 0; i < w.PerClient; i++ {
				next++
				out[r].Clients[c] = append(out[r].Clients[c], request(next))
			}
		}
	}
	return out
}
