package bincodec

import (
	"bytes"
	"io"
	"testing"
	"testing/iotest"
)

// TestReadBodyBoundsForgedLength: a length the peer never backs with bytes
// costs at most readStep of buffer, whatever it claims.
func TestReadBodyBoundsForgedLength(t *testing.T) {
	body, err := ReadBody(bytes.NewReader(make([]byte, 100)), nil, 1<<30)
	if err != io.ErrUnexpectedEOF {
		t.Fatalf("a body cut short: %v, want io.ErrUnexpectedEOF", err)
	}
	if cap(body) > readStep {
		t.Errorf("a forged 1 GiB length grew the buffer to %d bytes, want at most %d", cap(body), readStep)
	}
}

// TestReadBodyGrowsAndReuses reads bodies smaller and larger than readStep,
// in short reads, and checks that a buffer large enough is reused.
func TestReadBodyGrowsAndReuses(t *testing.T) {
	for _, n := range []int{0, 1, readStep, 3*readStep + 7} {
		want := bytes.Repeat([]byte{0xA5, 0x5A, 0x01}, n/3+1)[:n]
		got, err := ReadBody(iotest.HalfReader(bytes.NewReader(want)), nil, n)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("n=%d: read %d bytes, %v", n, len(got), err)
		}
	}
	buf := make([]byte, 0, 64)
	got, err := ReadBody(bytes.NewReader([]byte("body")), buf, 4)
	if err != nil || string(got) != "body" || &got[0] != &buf[:1][0] {
		t.Errorf("a 4-byte body into a 64-byte buffer: %q, %v; want it read into that buffer", got, err)
	}
}
