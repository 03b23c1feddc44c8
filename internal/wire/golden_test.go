package wire

import (
	"bufio"
	"encoding/hex"
	"os"
	"strings"
	"testing"
)

// TestMessageEncodingGolden pins the body bytes of every allMessages entry
// against testdata/messages.golden, one "<kind> <hex body>" line per kind.
// Round trips cannot see a field order swapped on both sides of the codec;
// this can. The file is the protocol: a change to it is a wire change.
func TestMessageEncodingGolden(t *testing.T) {
	fh, err := os.Open("testdata/messages.golden")
	if err != nil {
		t.Fatal(err)
	}
	defer fh.Close()
	want := make(map[string]string)
	sc := bufio.NewScanner(fh)
	for sc.Scan() {
		name, body, _ := strings.Cut(sc.Text(), " ")
		want[name] = body
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	msgs := allMessages()
	if len(want) != len(msgs) {
		t.Errorf("golden file has %d kinds, allMessages %d", len(want), len(msgs))
	}
	for _, m := range msgs {
		f, err := Encode(0, m)
		if err != nil {
			t.Fatalf("%s encode: %v", m.Kind(), err)
		}
		if got := hex.EncodeToString(f.Body); got != want[m.Kind().String()] {
			t.Errorf("%s body:\n got %s\nwant %s", m.Kind(), got, want[m.Kind().String()])
		}
	}
}
