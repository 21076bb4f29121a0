package resilience

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"

	"hammertime/internal/fault"
)

// CorruptCellResults wraps a worker's HTTP handler into a Byzantine
// worker, the mechanism of the worker.corrupt fault: with the fault's
// probability per computed cell it rewrites the cell's
// result bytes — first decimal digit bumped by one — while leaving the
// response shape, the echoed content keys and the config string intact.
// The corruption therefore passes every transport- and key-level check
// the coordinator runs; only a byte audit (re-executing the cell and
// comparing results) can catch it, which is exactly what the corrupt-
// result quarantine exists to do. The armed worker site draws one roll
// per returned cell, so a given seed corrupts a reproducible subsequence
// of cells.
//
// Paths other than POST /v1/cells pass through untouched. This is a
// fault-injection device for soak tests and the CI chaos job
// (-faults worker.corrupt:<p> on a worker); it has no production use.
func CorruptCellResults(inner http.Handler, site *fault.Site) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost || r.URL.Path != "/v1/cells" {
			inner.ServeHTTP(rw, r)
			return
		}
		buf := httptest.NewRecorder()
		inner.ServeHTTP(buf, r)
		body := buf.Body.Bytes()
		if buf.Code == http.StatusOK {
			if mutated, changed := corruptResponse(body, site); changed {
				body = mutated
			}
		}
		h := rw.Header()
		for k, v := range buf.Header() {
			h[k] = v
		}
		h.Set("Content-Length", strconv.Itoa(len(body)))
		rw.WriteHeader(buf.Code)
		rw.Write(body)
	})
}

// corruptResponse rewrites a CellResponse body, bumping a digit in each
// rolled cell's result. Returns the mutated body and whether anything
// changed. Structurally generic — a map of raw JSON — so it tracks the
// wire format without importing it (the cluster package imports this
// one).
func corruptResponse(body []byte, site *fault.Site) ([]byte, bool) {
	var resp map[string]json.RawMessage
	if json.Unmarshal(body, &resp) != nil {
		return body, false
	}
	var cells []map[string]json.RawMessage
	if json.Unmarshal(resp["cells"], &cells) != nil {
		return body, false
	}
	changed := false
	for _, cell := range cells {
		if _, fired := site.Roll("corrupt"); !fired {
			continue
		}
		if mutated, ok := bumpDigit(cell["result"]); ok {
			cell["result"] = mutated
			changed = true
		}
	}
	if !changed {
		return body, false
	}
	rawCells, err := json.Marshal(cells)
	if err != nil {
		return body, false
	}
	resp["cells"] = rawCells
	out, err := json.Marshal(resp)
	if err != nil {
		return body, false
	}
	return out, true
}

// bumpDigit replaces the first decimal digit in raw with (digit+1)%10 —
// a wrong number in an otherwise perfectly well-formed result.
func bumpDigit(raw json.RawMessage) (json.RawMessage, bool) {
	i := bytes.IndexFunc(raw, func(r rune) bool { return r >= '0' && r <= '9' })
	if i < 0 {
		return raw, false
	}
	out := append(json.RawMessage(nil), raw...)
	out[i] = '0' + (out[i]-'0'+1)%10
	return out, true
}
