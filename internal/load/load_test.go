package load

import (
	"testing"

	"repro/internal/datagen"
	"repro/internal/vdb"
)

func TestChainWorkload(t *testing.T) {
	w := ChainWorkload(5, 12)
	if len(w) != 12 {
		t.Fatalf("workload size %d", len(w))
	}
	src := datagen.New(3)
	cat := src.Catalog(5)
	db := vdb.Open(cat, src.Rows(cat), &vdb.Options{Guided: true})
	for _, st := range w {
		var err error
		if len(st.Params) > 0 {
			_, err = db.QueryParams(st.SQL, st.Params...)
		} else {
			_, err = db.Query(st.SQL)
		}
		if err != nil {
			t.Errorf("workload statement %q: %v", st.SQL, err)
		}
	}
}
