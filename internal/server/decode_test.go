package server

// Hostile-input coverage for the three record decoders a restart runs before
// it serves anything: phylo's checkpoint and tree codecs and the WAL payload
// replay. A CRC vouches for bits, not for the writer, so every length a
// varint can carry has to come back as an error — never as a slice bound.

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"hash/crc32"
	"os"
	"strings"
	"testing"

	"cellmg/internal/phylo"
)

// reframe puts body into the frame of the valid phylo record like: its 8-byte
// magic in front, the body's CRC-32C behind.
func reframe(like, body []byte) []byte {
	out := append([]byte(nil), like[:8]...)
	out = append(out, body...)
	return binary.LittleEndian.AppendUint32(out, crc32.Checksum(body, walCRC))
}

// poison is a length no record can hold; as an int it is negative.
var poison = binary.AppendUvarint(nil, 1<<63)

func TestDecodersRejectTruncatedAndOversizedInput(t *testing.T) {
	text, err := os.ReadFile("../phylo/testdata/checkpoint_v1_spec4_round1.hex")
	if err != nil {
		t.Fatal(err)
	}
	ckpt, err := hex.DecodeString(string(bytes.ReplaceAll(text, []byte("\n"), nil)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := phylo.DecodeCheckpoint(ckpt); err != nil {
		t.Fatalf("the fixture itself: %v", err)
	}
	tr, err := phylo.ParseNewick("((a:0.12,b:0.34):0.21,(c:0.08,d:0.45):0.17);")
	if err != nil {
		t.Fatal(err)
	}
	tree := phylo.AppendTreeBinary(nil, tr)
	if _, err := phylo.DecodeTreeBinary(tree); err != nil {
		t.Fatalf("a fresh tree record: %v", err)
	}
	ckptBody, treeBody := ckpt[8:len(ckpt)-4], tree[8:len(tree)-4]

	// The checkpoint's model name follows six varints and 28 fixed bytes; a
	// tree record's first taxon name follows two varints.
	skipVarints := func(b []byte, n int) int {
		off := 0
		for ; n > 0; n-- {
			_, w := binary.Uvarint(b[off:])
			off += w
		}
		return off
	}
	nameAt := skipVarints(ckptBody, 6) + 28
	taxonAt := skipVarints(treeBody, 2)
	splice := func(body []byte, at int, with []byte) []byte {
		out := append([]byte(nil), body[:at]...)
		out = append(out, with...)
		return append(out, body[at+1:]...) // the replaced length was one byte
	}

	specJSON, _ := json.Marshal(smallSpec(1))
	accept := walRecord{recJobAccepted, appendLenBytes(appendStr(nil, "j-000001"), specJSON)}
	replay := func(typ recType, payload []byte) func() error {
		return func() error {
			_, err := replayJobRecords([]walRecord{accept, {typ, payload}})
			return err
		}
	}
	// task returns a fresh task-record payload head (job id, bootstrap flag,
	// index) followed by rest.
	task := func(rest ...byte) []byte {
		return append(binary.AppendUvarint(appendBool(appendStr(nil, "j-000001"), true), 3), rest...)
	}

	type decodeCase struct {
		name   string
		decode func() error
	}
	cases := []decodeCase{
		{"checkpoint model-name length 2^63", func() error {
			_, err := phylo.DecodeCheckpoint(reframe(ckpt, splice(ckptBody, nameAt, poison)))
			return err
		}},
		{"checkpoint model-name length beyond its limit", func() error {
			long := append(binary.AppendUvarint(nil, 1<<11), make([]byte, 1<<11)...)
			_, err := phylo.DecodeCheckpoint(reframe(ckpt, splice(ckptBody, nameAt, long)))
			return err
		}},
		{"tree taxon-name length 2^63", func() error {
			_, err := phylo.DecodeTreeBinary(reframe(tree, splice(treeBody, taxonAt, poison)))
			return err
		}},
		{"tree taxon count 2^63", func() error {
			_, err := phylo.DecodeTreeBinary(reframe(tree, append([]byte{1}, poison...)))
			return err
		}},
		{"wal accepted: id length 2^63", func() error {
			_, err := replayJobRecords([]walRecord{{recJobAccepted, poison}})
			return err
		}},
		{"wal accepted: spec length 2^63", func() error {
			_, err := replayJobRecords([]walRecord{{recJobAccepted, append(appendStr(nil, "j-000001"), poison...)}})
			return err
		}},
		{"wal started: no attempt count", replay(recJobStarted, appendStr(nil, "j-000001"))},
		{"wal started: attempt count 2^63", replay(recJobStarted, append(appendStr(nil, "j-000001"), poison...))},
		{"wal checkpoint: length 2^63", replay(recCheckpoint, task(poison...))},
		{"wal checkpoint: length one past the payload", replay(recCheckpoint, task(1))},
		{"wal task_done: half a float", replay(recTaskDone, task(0, 0, 0, 0))},
		{"wal task_done: tree length 2^63", replay(recTaskDone, append(task(make([]byte, 8)...), poison...))},
		{"wal finished: result length 2^63", replay(recJobFinished,
			append(appendStr(appendStr(appendStr(nil, "j-000001"), "done"), ""), poison...))},
	}
	for k := range ckptBody {
		cases = append(cases, decodeCase{"checkpoint cut", func() error {
			_, err := phylo.DecodeCheckpoint(reframe(ckpt, ckptBody[:k]))
			return err
		}})
	}
	for k := range treeBody {
		cases = append(cases, decodeCase{"tree cut", func() error {
			_, err := phylo.DecodeTreeBinary(reframe(tree, treeBody[:k]))
			return err
		}})
	}
	for i, c := range cases {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("case %d (%s): panic: %v", i, c.name, r)
				}
			}()
			err := c.decode()
			if err == nil {
				t.Errorf("case %d (%s): decoded without error", i, c.name)
			} else if strings.HasPrefix(c.name, "wal") && !strings.HasPrefix(err.Error(), "wal: ") {
				t.Errorf("case %d (%s): error %q does not name the log", i, c.name, err)
			}
		}()
	}
}

// TestOpenRejectsPoisonedLog: a segment whose frame CRC is valid but whose
// payload carries an impossible length fails Open with an error; the server
// does not come up on a log it cannot read, and does not crash on it either.
func TestOpenRejectsPoisonedLog(t *testing.T) {
	dir := t.TempDir()
	w, _, err := openWAL(walOptions{dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.appendDurable(recJobAccepted, append(appendStr(nil, "j-000001"), poison...)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	s, err := Open(Options{DataDir: dir, Workers: 1})
	if err == nil {
		s.Close()
		t.Fatal("Open served a log with a 2^63-byte spec")
	}
	if !strings.Contains(err.Error(), "wal:") {
		t.Errorf("Open failed with %q, want the replay's wal: error", err)
	}
}
