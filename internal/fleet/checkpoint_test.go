package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// FuzzOpenCheckpoint feeds arbitrary bytes to the journal decoder. Open
// must not panic; it must accept exactly the newline-terminated lines that
// carry keys in the text Add writes (16 lower-case hex digits), and a
// record added after the open must survive a reopen alongside every record
// the first open accepted.
func FuzzOpenCheckpoint(f *testing.F) {
	rec := `{"campaign":"0000000000000001","item":"0000000000000002","result":{"x":1.5}}`
	f.Add([]byte(""))
	f.Add([]byte(rec + "\n"))
	f.Add([]byte(rec + "\n" + `{"campaign":"0000000000000001","item":"00000000000`))
	f.Add([]byte(rec)) // complete record, newline never written
	f.Add([]byte(`{"campaign":"5zz","item":"0000000000000002","result":1}` + "\n"))
	f.Add([]byte(`{"campaign":"000000000000000A","item":"0000000000000002","result":1}` + "\n"))
	f.Add([]byte(`{"campaign":"0x00000000000001","item":"0000000000000002","result":1}` + "\n"))
	f.Add([]byte(`{"campaign":"1","item":"2","result":1}` + "\n"))
	f.Add([]byte(rec + "\r\n\n" + rec + "\n"))
	f.Add([]byte("\x00\xff{not json\n" + rec + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.ckpt")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		c, err := OpenCheckpoint(path)
		if err != nil {
			return // failing cleanly is allowed
		}

		want := make(map[ckptKey]json.RawMessage)
		lines := bytes.Split(data, []byte("\n"))
		for _, line := range lines[:len(lines)-1] { // the last piece has no newline
			var r ckptRecord
			if json.Unmarshal(line, &r) != nil {
				continue
			}
			var k ckptKey
			if _, err := fmt.Sscanf(r.Campaign, "%x", &k.campaign); err != nil {
				continue
			}
			if _, err := fmt.Sscanf(r.Item, "%x", &k.item); err != nil {
				continue
			}
			if r.Campaign != fmt.Sprintf("%016x", k.campaign) || r.Item != fmt.Sprintf("%016x", k.item) {
				continue
			}
			want[k] = r.Result
		}
		if len(c.done) != len(want) {
			t.Fatalf("accepted %d records, want %d", len(c.done), len(want))
		}
		for k, raw := range want {
			if got, ok := c.done[k]; !ok || !bytes.Equal(got, raw) {
				t.Fatalf("record %+v: got %q (present %v), want %q", k, got, ok, raw)
			}
		}

		added := ckptKey{campaign: 7}
		for _, ok := c.done[added]; ok; _, ok = c.done[added] {
			added.item++
		}
		if err := c.Add(added.campaign, added.item, map[string]float64{"x": 2.5}); err != nil {
			t.Fatal(err)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		re, err := OpenCheckpoint(path)
		if err != nil {
			t.Fatal(err)
		}
		defer re.Close()
		var out map[string]float64
		if !re.Lookup(added.campaign, added.item, &out) || out["x"] != 2.5 {
			t.Fatalf("record added after open lost on reopen (%d records)", re.Len())
		}
		if re.Len() != len(want)+1 {
			t.Fatalf("reopen holds %d records, want %d", re.Len(), len(want)+1)
		}
	})
}
