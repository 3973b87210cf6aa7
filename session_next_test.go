package humo

import (
	"context"
	"errors"
	"slices"
	"testing"
)

// TestNextCanceledBeforeBatch pins Next's ctx.Done arm: while the search
// has not produced its batch, Next under a canceled ctx returns ctx's
// error, and the session stays usable — the batch the search produces
// afterwards is served to the next Next. The session's channels are built
// by hand with no search goroutine, so the batch is never ready early.
func TestNextCanceledBeforeBatch(t *testing.T) {
	s := &Session{
		answered: map[int]bool{},
		reqCh:    make(chan []int),
		ansCh:    make(chan struct{}),
		extendCh: make(chan struct{}),
		doneCh:   make(chan struct{}),
		abort:    make(chan struct{}),
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if b, err := s.Next(canceled); !errors.Is(err, context.Canceled) || !b.Empty() {
		t.Fatalf("Next with canceled ctx: batch %v, err %v; want an empty batch and context.Canceled", b, err)
	}
	go func() { s.reqCh <- []int{3, 5} }() // the search's next batch
	b, err := s.Next(context.Background())
	if err != nil || !slices.Equal(b.IDs, []int{3, 5}) {
		t.Fatalf("Next after the canceled call: batch %v, err %v; want [3 5]", b, err)
	}
}
