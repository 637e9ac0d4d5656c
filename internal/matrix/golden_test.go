package matrix

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"assocmine/internal/testutil"
)

// goldenRows is the fixture the committed testdata/golden.* files were
// written from (12 columns): an empty row, a full row, the last
// column alone, and sparse rows whose gaps pick different Rice
// parameters.
var goldenRows = [][]int32{
	{0, 1}, {1, 2, 3}, {}, {11}, {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11},
	{0, 11}, {3, 7}, {}, {2, 4, 6, 8, 10},
}

// TestGoldenFileBytes pins the binary dataset file formats byte for
// byte: the row binary (ARW1, ".arows") and the compressed rows (CRW1,
// ".carows"). Writing the
// fixture must reproduce the committed bytes and reading them must
// give the fixture back, so a format change is a visible diff of
// testdata/.
func TestGoldenFileBytes(t *testing.T) {
	m := testutil.Must(FromRows(12, goldenRows))
	for _, name := range []string{"golden.arows", "golden.carows"} {
		golden := filepath.Join("testdata", name)
		path := filepath.Join(t.TempDir(), name)
		if err := SaveFile(path, m); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: the fixture encodes to %d bytes that differ from the %d golden ones", name, len(got), len(want))
		}
		loaded, err := loadFile(golden)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !matricesEqual(loaded, m) {
			t.Errorf("%s: the golden bytes decode to another matrix than the fixture", name)
		}
	}
}
