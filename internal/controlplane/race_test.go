package controlplane

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// TestConcurrentReadsDuringSwaps hammers GET /v1/plan from many readers
// while a writer drives traffic updates and a rollback through the swap
// path. Every response must be internally consistent (body fingerprint
// matches the X-R3-Digest header — no torn reads across a swap) and each
// reader must observe monotonically non-decreasing revision IDs (the
// single atomic pointer can never go backwards). Run under -race this is
// the concurrency acceptance test for the whole control plane.
func TestConcurrentReadsDuringSwaps(t *testing.T) {
	pc := testFWConfig()
	s, ts, _ := newTestServer(t, pc, nil)
	g := testGraph()
	d := testMatrix(g, 150, 1)

	const readers = 8
	stop := make(chan struct{})
	errCh := make(chan error, readers)
	var wg sync.WaitGroup
	var reads int64
	var readsMu sync.Mutex

	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &http.Client{Timeout: 10 * time.Second}
			var lastRev int64
			n := int64(0)
			defer func() {
				readsMu.Lock()
				reads += n
				readsMu.Unlock()
			}()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := client.Get(ts.URL + "/v1/plan")
				if err != nil {
					errCh <- err
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					errCh <- err
					return
				}
				if resp.StatusCode != http.StatusOK {
					errCh <- fmt.Errorf("GET /v1/plan = %d", resp.StatusCode)
					return
				}
				// Tear check: the body must hash to the digest the handler
				// stamped from the same revision snapshot.
				if got, want := fmt.Sprintf("%016x", core.Fingerprint(body)), resp.Header.Get("X-R3-Digest"); got != want {
					errCh <- fmt.Errorf("torn read: body fingerprint %s, header %s", got, want)
					return
				}
				rev, err := strconv.ParseInt(resp.Header.Get("X-R3-Revision"), 10, 64)
				if err != nil {
					errCh <- fmt.Errorf("bad revision header %q", resp.Header.Get("X-R3-Revision"))
					return
				}
				// Staleness check: a reader can never see an older revision
				// after a newer one.
				if rev < lastRev {
					errCh <- fmt.Errorf("revision went backwards: %d after %d", rev, lastRev)
					return
				}
				lastRev = rev
				n++
			}
		}()
	}

	// Writer: a run of traffic updates, each waited to completion, then a
	// rollback — five swaps total racing the readers.
	cur := d
	for rev := int64(2); rev <= 5; rev++ {
		cur = perturb(t, cur, float64(rev))
		if code, resp := post(t, ts.URL+"/v1/traffic", matrixText(t, g, cur)); code != http.StatusAccepted {
			t.Errorf("POST /v1/traffic = %d: %s", code, resp)
			break
		}
		waitRevision(t, s, rev)
	}
	if code, resp := post(t, ts.URL+"/v1/rollback?rev=3", nil); code != http.StatusOK {
		t.Errorf("rollback = %d: %s", code, resp)
	}

	close(stop)
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	if reads == 0 {
		t.Fatal("readers made no successful reads")
	}
	if rev := s.Active(); rev.ID != 6 || rev.RollbackOf != 3 {
		t.Fatalf("final revision %d (rollback of %d), want 6 (of 3)", rev.ID, rev.RollbackOf)
	}
	t.Logf("%d concurrent reads across 5 swaps, zero torn or regressing responses", reads)
}

// TestConcurrentMixedEndpoints races plan reads, scenario evaluations and
// revision-log listings against background swaps — no endpoint may panic,
// tear, or observe a half-published revision.
func TestConcurrentMixedEndpoints(t *testing.T) {
	s, ts, _ := newTestServer(t, testFWConfig(), nil)
	g := testGraph()
	d := testMatrix(g, 150, 1)

	stop := make(chan struct{})
	errCh := make(chan error, 3)
	var wg sync.WaitGroup
	paths := []string{"/v1/plan", "/v1/scenario?links=0", "/v1/revisions"}
	for _, p := range paths {
		wg.Add(1)
		go func(path string) {
			defer wg.Done()
			client := &http.Client{Timeout: 10 * time.Second}
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := client.Get(ts.URL + path)
				if err != nil {
					errCh <- err
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errCh <- fmt.Errorf("GET %s = %d", path, resp.StatusCode)
					return
				}
			}
		}(p)
	}

	cur := d
	for rev := int64(2); rev <= 4; rev++ {
		cur = perturb(t, cur, float64(rev))
		if code, resp := post(t, ts.URL+"/v1/traffic", matrixText(t, g, cur)); code != http.StatusAccepted {
			t.Errorf("POST /v1/traffic = %d: %s", code, resp)
			break
		}
		waitRevision(t, s, rev)
	}

	close(stop)
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
}
