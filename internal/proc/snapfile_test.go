package proc

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"testing"
)

// marshalSnap captures a snapshot of snapProgram and returns it with its
// binary encoding.
func marshalSnap(t *testing.T, cfg Config, warmup uint64) (*Snapshot, []byte) {
	t.Helper()
	prog := snapProgram(4000)
	snap, err := CaptureSnapshot(context.Background(), prog, cfg, warmup)
	if err != nil {
		t.Fatalf("CaptureSnapshot: %v", err)
	}
	data, err := snap.MarshalBinary()
	if err != nil {
		t.Fatalf("MarshalBinary: %v", err)
	}
	return snap, data
}

// TestSnapshotMarshalRoundTrip is the codec's byte-identity gate: a run
// restored from a decoded snapshot must produce statistics byte-identical
// to a run restored from the original, under every model-relevant path
// (trace construction, FGCI repair, recovery), and re-encoding the decoded
// snapshot must reproduce the original bytes exactly — the property the
// content-addressed snapshot store depends on.
func TestSnapshotMarshalRoundTrip(t *testing.T) {
	cfg := DefaultConfig()
	const warmup = 25_000
	snap, data := marshalSnap(t, cfg, warmup)

	decoded, err := UnmarshalSnapshot(data)
	if err != nil {
		t.Fatalf("UnmarshalSnapshot: %v", err)
	}
	if decoded.WarmupInsts() != warmup || decoded.PC() != snap.PC() {
		t.Fatalf("decoded snapshot header drifted: warmup %d PC %d, want %d/%d",
			decoded.WarmupInsts(), decoded.PC(), warmup, snap.PC())
	}

	reencoded, err := decoded.MarshalBinary()
	if err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if !bytes.Equal(data, reencoded) {
		t.Fatal("decode/encode round trip changed the snapshot bytes")
	}

	for _, model := range []Model{ModelBase, ModelFGMLBRET} {
		want := runFromSnapshot(t, snap, model, cfg)
		got := runFromSnapshot(t, decoded, model, cfg)
		a, _ := json.Marshal(want)
		b, _ := json.Marshal(got)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: run restored from decoded snapshot diverged:\n%s\n%s", model.Name, a, b)
		}
	}
}

// TestSnapshotMarshalDeterministic: two independent captures of the same
// (program, config, warm-up) must marshal identically — the key property
// behind content addressing.
func TestSnapshotMarshalDeterministic(t *testing.T) {
	cfg := DefaultConfig()
	_, a := marshalSnap(t, cfg, 12_000)
	_, b := marshalSnap(t, cfg, 12_000)
	if !bytes.Equal(a, b) {
		t.Fatal("two captures of the same recipe marshalled differently")
	}
}

// TestSnapshotUnmarshalCorrupt: truncations and bit flips at every offset
// must surface as typed ErrCorruptSnapshot errors, never panics, and never
// a silently wrong snapshot (the CRC covers the whole payload).
func TestSnapshotUnmarshalCorrupt(t *testing.T) {
	_, data := marshalSnap(t, DefaultConfig(), 5_000)

	for _, n := range []int{0, 4, 8, 9, len(data) / 2, len(data) - 1} {
		if _, err := UnmarshalSnapshot(data[:n]); !errors.Is(err, ErrCorruptSnapshot) {
			t.Errorf("truncation to %d bytes: got %v, want ErrCorruptSnapshot", n, err)
		}
	}
	stride := len(data)/97 + 1
	for off := 0; off < len(data); off += stride {
		mut := append([]byte(nil), data...)
		mut[off] ^= 0x40
		if _, err := UnmarshalSnapshot(mut); err == nil {
			t.Errorf("bit flip at offset %d decoded cleanly", off)
		} else if !errors.Is(err, ErrCorruptSnapshot) {
			t.Errorf("bit flip at offset %d: got %v, want ErrCorruptSnapshot", off, err)
		}
	}
}

// withConfigField re-frames a marshalled snapshot with field appended to
// its configuration JSON, recomputing the payload length and CRC — the
// shape of an image written by a build whose Config had that field.
func withConfigField(t *testing.T, data []byte, field string) []byte {
	t.Helper()
	body := data[len(snapMagic):]
	n, k := binary.Uvarint(body)
	payload := body[k : k+int(n)]
	cfgLen, k := binary.Uvarint(payload)
	cfgJSON, rest := payload[k:k+int(cfgLen)], payload[k+int(cfgLen):]
	end := len(cfgJSON) - 1
	if cfgJSON[end] != '}' {
		t.Fatalf("configuration section is not a JSON object: %q", cfgJSON)
	}
	spliced := append(append([]byte(nil), cfgJSON[:end]...), ","+field+"}"...)

	newPayload := binary.AppendUvarint(nil, uint64(len(spliced)))
	newPayload = append(append(newPayload, spliced...), rest...)
	out := append([]byte(nil), snapMagic[:]...)
	out = binary.AppendUvarint(out, uint64(len(newPayload)))
	out = append(out, newPayload...)
	return binary.LittleEndian.AppendUint32(out, crc32.Checksum(newPayload, snapCRCTable))
}

// TestSnapshotDecodesRemovedGCInterval: images written while Config still
// had the tag collector's GCInterval carry it in their configuration JSON.
// They must still decode, and restore to the same run as a current image.
func TestSnapshotDecodesRemovedGCInterval(t *testing.T) {
	cfg := DefaultConfig()
	snap, data := marshalSnap(t, cfg, 5_000)
	old := withConfigField(t, data, `"GCInterval":8192`)
	if !bytes.Contains(old, []byte(`"GCInterval":8192`)) {
		t.Fatal("splice did not take")
	}
	decoded, err := UnmarshalSnapshot(old)
	if err != nil {
		t.Fatalf("UnmarshalSnapshot of an image with GCInterval: %v", err)
	}
	want, _ := json.Marshal(runFromSnapshot(t, snap, ModelFGMLBRET, cfg))
	got, _ := json.Marshal(runFromSnapshot(t, decoded, ModelFGMLBRET, cfg))
	if !bytes.Equal(want, got) {
		t.Errorf("run restored from the old image diverged:\n%s\n%s", want, got)
	}
}
