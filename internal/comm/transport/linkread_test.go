package transport

import (
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/comm/wire"
	"repro/internal/tensor"
)

// countingConn counts the Read calls that returned bytes.
type countingConn struct {
	net.Conn
	reads atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.reads.Add(1)
	}
	return n, err
}

// A link reads a frame that fits its buffer in one Read, header and body
// together, where reading them straight off the socket takes two. Each
// frame here is one Write, as link.send writes it, and a pipe's Read never
// returns more than one Write's bytes: at most one Read per frame.
func TestLinkReadsOneCallPerFrame(t *testing.T) {
	near, far := net.Pipe()
	conn := &countingConn{Conn: near}
	l := &link{peer: 1, conn: conn}
	l.start()
	t.Cleanup(func() {
		far.Close()
		for range l.inbox { // the reader has exited once its inbox is closed
		}
	})

	// A decode step's traffic at B = 1 and 8 on 8 heads of 32, and the
	// small frames between the blocks.
	frames := []any{
		&wire.QBlock{Q: tensor.New(1, 8, 32), Pos: []int{7}, Seq: []int{0}},
		&wire.Ack{},
		&wire.QBlock{Q: tensor.New(8, 8, 32), Pos: make([]int, 8), Seq: make([]int, 8)},
		&wire.Ack{Err: "x"},
	}
	const rounds = 8
	go func() {
		var w wire.Writer
		for i := 0; i < rounds; i++ {
			for _, f := range frames {
				if _, err := w.WriteFrame(far, f); err != nil {
					return
				}
			}
		}
	}()
	n := rounds * len(frames)
	for i := 0; i < n; i++ {
		v, err := l.recv(10 * time.Second)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if _, ok := v.(*wire.QBlock); !ok && i%2 == 0 {
			t.Fatalf("frame %d is a %T, want a *wire.QBlock", i, v)
		}
	}
	if got := conn.reads.Load(); got > int64(n) {
		t.Fatalf("%d frames took %d Read calls, want at most one each", n, got)
	}
	if got := atomic.LoadInt64(&l.inMsgs); got != int64(n) {
		t.Fatalf("link counted %d frames in, want %d", got, n)
	}
}
