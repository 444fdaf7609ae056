package transformer

import "repro/internal/attention"

// scratchBytes is the memory kernel scratch holds for an in-process
// cluster: its ranks' own (attention and sweep scratch) and every pool
// worker's slot, the attention kernel's and the sweeps'; -1 on a cluster
// whose ranks live elsewhere.
func scratchBytes(c *Cluster) int {
	p, ok := c.plane.(*memPlane)
	if !ok {
		return -1
	}
	var ranks []*attention.Scratch
	n := 0
	for _, e := range p.engines {
		ranks = append(ranks, &e.attn)
		n += 4 * cap(e.sweep)
	}
	for _, s := range sweepSlots {
		n += 4 * cap(s)
	}
	return n + attention.ScratchBytes(ranks...)
}
