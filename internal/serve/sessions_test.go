package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"lite/pkg/api"
	"lite/pkg/client"
)

// newSessionServer spins up a started server plus an httptest frontend and
// a typed client against it — the exact stack a real consumer uses.
func newSessionServer(t *testing.T, opts Options) (*Server, *httptest.Server, *client.Client) {
	t.Helper()
	s := newTestServer(t, opts)
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	return s, srv, client.New(srv.URL)
}

func TestSessionLifecycleHTTP(t *testing.T) {
	_, _, cl := newSessionServer(t, Options{})
	ctx := context.Background()

	sess, err := cl.CreateSession(ctx, api.CreateSessionRequest{
		App: "WordCount", Cluster: "C", Strategy: "moderate", MaxTrials: 4,
	})
	if err != nil {
		t.Fatalf("CreateSession: %v", err)
	}
	if sess.State != "active" || sess.MaxTrials != 4 || sess.SizeMB <= 0 {
		t.Fatalf("created session = %+v", sess)
	}

	// Trial 0 measures the baseline; its guard-rail is still unset.
	p0, err := cl.NextProposal(ctx, sess.ID)
	if err != nil {
		t.Fatalf("NextProposal: %v", err)
	}
	if p0.Trial != 0 || p0.Source != "baseline" || p0.AbortAfterSeconds != 0 {
		t.Fatalf("trial 0 = %+v", p0)
	}
	if _, err := cl.ReportResult(ctx, sess.ID, api.ReportResultRequest{Trial: 0, Seconds: 100}); err != nil {
		t.Fatalf("ReportResult: %v", err)
	}

	// Every later proposal carries the guard-rail and spends budget until
	// the typed budget_exhausted error.
	trials := 1
	for {
		p, err := cl.NextProposal(ctx, sess.ID)
		if client.ErrorCode(err) == api.CodeBudgetExhausted {
			break
		}
		if err != nil {
			t.Fatalf("NextProposal: %v", err)
		}
		if want := sess.SafetyBound * 100; p.AbortAfterSeconds != want {
			t.Fatalf("AbortAfterSeconds = %g, want %g", p.AbortAfterSeconds, want)
		}
		if _, err := cl.ReportResult(ctx, sess.ID, api.ReportResultRequest{Trial: p.Trial, Seconds: 95}); err != nil {
			t.Fatalf("ReportResult: %v", err)
		}
		trials++
	}
	if trials != 4 {
		t.Fatalf("ran %d trials, want the budget of 4", trials)
	}

	got, err := cl.GetSession(ctx, sess.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.TrialsUsed != 4 || len(got.Trials) != 4 || got.BaselineSeconds != 100 {
		t.Fatalf("GET session = %+v", got)
	}

	list, err := cl.ListSessions(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].ID != sess.ID {
		t.Fatalf("list = %+v", list)
	}

	closed, err := cl.CloseSession(ctx, sess.ID)
	if err != nil {
		t.Fatal(err)
	}
	if closed.State != "closed" || closed.ClosedAt == "" {
		t.Fatalf("closed session = %+v", closed)
	}
	// Closing again is idempotent, and the resource stays readable.
	if _, err := cl.CloseSession(ctx, sess.ID); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if _, err := cl.GetSession(ctx, sess.ID); err != nil {
		t.Fatalf("GET after close: %v", err)
	}
}

// TestSessionErrorEnvelopes walks every handler failure path and asserts
// each answers with the unified envelope: JSON content type, the expected
// stable code, the expected status.
func TestSessionErrorEnvelopes(t *testing.T) {
	_, srv, cl := newSessionServer(t, Options{})
	ctx := context.Background()

	sess, err := cl.CreateSession(ctx, api.CreateSessionRequest{App: "WordCount", Cluster: "C", MaxTrials: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.NextProposal(ctx, sess.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.ReportResult(ctx, sess.ID, api.ReportResultRequest{Trial: 0, Seconds: 100}); err != nil {
		t.Fatal(err)
	}

	closedSess, err := cl.CreateSession(ctx, api.CreateSessionRequest{App: "WordCount", Cluster: "C"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.CloseSession(ctx, closedSess.ID); err != nil {
		t.Fatal(err)
	}

	do := func(method, path, body string) *http.Response {
		t.Helper()
		var rd io.Reader
		if body != "" {
			rd = strings.NewReader(body)
		}
		req, err := http.NewRequest(method, srv.URL+path, rd)
		if err != nil {
			t.Fatal(err)
		}
		res, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	cases := []struct {
		name   string
		method string
		path   string
		body   string
		status int
		code   string
	}{
		{"create bad json", "POST", "/v1/tuning/sessions", "{", 400, api.CodeInvalidArgument},
		{"create unknown field", "POST", "/v1/tuning/sessions", `{"bogus":1}`, 400, api.CodeInvalidArgument},
		{"create unknown app", "POST", "/v1/tuning/sessions", `{"app":"NoSuchApp","cluster":"C"}`, 400, api.CodeInvalidArgument},
		{"create unknown strategy", "POST", "/v1/tuning/sessions", `{"app":"WordCount","cluster":"C","strategy":"yolo"}`, 400, api.CodeInvalidArgument},
		{"create bad bound", "POST", "/v1/tuning/sessions", `{"app":"WordCount","cluster":"C","safety_bound":0.5}`, 400, api.CodeInvalidArgument},
		{"collection bad method", "PUT", "/v1/tuning/sessions", "", 405, api.CodeMethodNotAllowed},
		{"item not found", "GET", "/v1/tuning/sessions/none.1.C.00000000", "", 404, api.CodeNotFound},
		{"item bad method", "PATCH", "/v1/tuning/sessions/" + sess.ID, "", 405, api.CodeMethodNotAllowed},
		{"proposal bad method", "GET", "/v1/tuning/sessions/" + sess.ID + "/proposal", "", 405, api.CodeMethodNotAllowed},
		{"proposal not found", "POST", "/v1/tuning/sessions/none.1.C.00000000/proposal", "", 404, api.CodeNotFound},
		{"proposal budget exhausted", "POST", "/v1/tuning/sessions/" + sess.ID + "/proposal", "", 409, api.CodeBudgetExhausted},
		{"proposal on closed", "POST", "/v1/tuning/sessions/" + closedSess.ID + "/proposal", "", 409, api.CodeSessionClosed},
		{"result bad json", "POST", "/v1/tuning/sessions/" + sess.ID + "/result", "{", 400, api.CodeInvalidArgument},
		{"result unknown trial", "POST", "/v1/tuning/sessions/" + sess.ID + "/result", `{"trial":7,"seconds":10}`, 400, api.CodeUnknownTrial},
		{"result already reported", "POST", "/v1/tuning/sessions/" + sess.ID + "/result", `{"trial":0,"seconds":10}`, 409, api.CodeTrialAlreadyReported},
		{"result bad seconds", "POST", "/v1/tuning/sessions/" + sess.ID + "/result", `{"trial":0,"seconds":-1}`, 400, api.CodeInvalidArgument},
		{"result on closed", "POST", "/v1/tuning/sessions/" + closedSess.ID + "/result", `{"trial":0,"seconds":10}`, 409, api.CodeSessionClosed},
		{"unknown v1 path", "GET", "/v1/tuning/nope", "", 404, api.CodeNotFound},
		{"recommend bad json", "POST", "/v1/recommend", "{", 400, api.CodeInvalidArgument},
		{"recommend bad method", "GET", "/v1/recommend", "", 405, api.CodeMethodNotAllowed},
		{"feedback bad json", "POST", "/v1/feedback", "{", 400, api.CodeInvalidArgument},
		{"healthz bad method", "POST", "/v1/healthz", "", 405, api.CodeMethodNotAllowed},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res := do(tc.method, tc.path, tc.body)
			defer res.Body.Close()
			if res.StatusCode != tc.status {
				t.Fatalf("status = %d, want %d", res.StatusCode, tc.status)
			}
			if ct := res.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
				t.Fatalf("Content-Type = %q, want JSON envelope", ct)
			}
			var env api.ErrorResponse
			if err := json.NewDecoder(res.Body).Decode(&env); err != nil {
				t.Fatalf("decode envelope: %v", err)
			}
			if env.Error.Code != tc.code {
				t.Fatalf("code = %q, want %q", env.Error.Code, tc.code)
			}
			if env.Error.Message == "" {
				t.Fatal("empty envelope message")
			}
			if tc.status == 405 && res.Header.Get("Allow") == "" {
				t.Fatal("405 without Allow header")
			}
		})
	}

	// The typed client surfaces the same envelope as *client.APIError.
	_, err = cl.GetSession(ctx, "none.1.C.00000000")
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.Status != 404 || ae.Code != api.CodeNotFound {
		t.Fatalf("client error = %v, want APIError{404, not_found}", err)
	}
}

// TestLegacyRoutesAnswer404Envelope: the unversioned spellings of the /v1
// routes are gone. Each answers 404 with the standard error envelope, the
// same as any unknown path, while its /v1 route still serves.
func TestLegacyRoutesAnswer404Envelope(t *testing.T) {
	_, srv, _ := newSessionServer(t, Options{EnableAdmin: true})

	body := `{"app":"WordCount","size_mb":512,"cluster":"C"}`
	for _, tc := range []struct{ method, path string }{
		{http.MethodPost, "/recommend"},
		{http.MethodPost, "/feedback"},
		{http.MethodGet, "/healthz"},
		{http.MethodPost, "/admin/flip"},
		{http.MethodGet, "/no/such/path"},
	} {
		req, _ := http.NewRequest(tc.method, srv.URL+tc.path, strings.NewReader(body))
		res, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var env api.ErrorResponse
		if err := json.NewDecoder(res.Body).Decode(&env); err != nil {
			t.Fatalf("%s %s: envelope decode: %v", tc.method, tc.path, err)
		}
		res.Body.Close()
		if res.StatusCode != http.StatusNotFound || env.Error.Code != api.CodeNotFound {
			t.Fatalf("%s %s = (%d, %q), want (404, not_found)", tc.method, tc.path, res.StatusCode, env.Error.Code)
		}
	}

	res, err := http.Post(srv.URL+"/v1/recommend", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/recommend: status %d, want 200", res.StatusCode)
	}
	// Wrong methods on a live /v1 route still get the 405 envelope.
	res, err = http.Post(srv.URL+"/v1/healthz", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var env api.ErrorResponse
	if err := json.NewDecoder(res.Body).Decode(&env); err != nil {
		t.Fatalf("POST /v1/healthz: envelope decode: %v", err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusMethodNotAllowed || env.Error.Code != api.CodeMethodNotAllowed {
		t.Fatalf("POST /v1/healthz = (%d, %q), want (405, method_not_allowed)", res.StatusCode, env.Error.Code)
	}
}

// TestSessionsConcurrent drives many sessions in parallel through the full
// HTTP stack (run under -race). Invariants checked per session: budget
// accounting is monotone and never exceeds MaxTrials, no trial violates the
// safety bound when clients honor the abort guard-rail, and every promoted
// win went through the feedback path exactly once.
func TestSessionsConcurrent(t *testing.T) {
	s, _, cl := newSessionServer(t, Options{})
	ctx := context.Background()

	const nSessions = 6
	const maxTrials = 6

	var wg sync.WaitGroup
	ids := make([]string, nSessions)
	errs := make([]error, nSessions)
	for i := 0; i < nSessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			app := "WordCount"
			if i%2 == 1 {
				app = "KMeans"
			}
			sess, err := cl.CreateSession(ctx, api.CreateSessionRequest{
				App: app, Cluster: "C", Strategy: "moderate", MaxTrials: maxTrials,
			})
			if err != nil {
				errs[i] = fmt.Errorf("create: %w", err)
				return
			}
			ids[i] = sess.ID
			lastBudget := maxTrials + 1
			for {
				p, err := cl.NextProposal(ctx, sess.ID)
				if client.ErrorCode(err) == api.CodeBudgetExhausted {
					return
				}
				if err != nil {
					errs[i] = fmt.Errorf("proposal: %w", err)
					return
				}
				if p.BudgetRemaining >= lastBudget {
					errs[i] = fmt.Errorf("budget not monotone: %d then %d", lastBudget, p.BudgetRemaining)
					return
				}
				lastBudget = p.BudgetRemaining
				// Deterministic "measurement": the baseline takes 100s, every
				// later trial is a strict improvement — and would honor the
				// abort guard-rail if it weren't.
				seconds := 100 - float64(p.Trial)
				if p.AbortAfterSeconds > 0 && seconds > p.AbortAfterSeconds {
					seconds = p.AbortAfterSeconds
				}
				if _, err := cl.ReportResult(ctx, sess.ID, api.ReportResultRequest{
					Trial: p.Trial, Seconds: seconds,
				}); err != nil {
					errs[i] = fmt.Errorf("report: %w", err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
	}

	totalPromoted := 0
	for _, id := range ids {
		sess, err := cl.GetSession(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if sess.TrialsUsed != maxTrials {
			t.Fatalf("session %s used %d trials, want %d", id, sess.TrialsUsed, maxTrials)
		}
		if sess.Violations != 0 {
			t.Fatalf("session %s reported %d violations with guard-rail honored", id, sess.Violations)
		}
		promotedTrials := 0
		for _, tr := range sess.Trials {
			if tr.Promoted {
				promotedTrials++
			}
		}
		if promotedTrials != sess.Promotions {
			t.Fatalf("session %s: %d promoted trials vs Promotions=%d", id, promotedTrials, sess.Promotions)
		}
		totalPromoted += promotedTrials
	}
	if totalPromoted == 0 {
		t.Fatal("no promotions across strictly-improving sessions")
	}

	// Exactly-once through the AMU path: every promotion either entered the
	// feedback queue (promotions_total) or was explicitly counted as dropped
	// — never both, never silently.
	fed := s.reg.Counter("lite_session_promotions_total").Value()
	dropped := s.reg.Counter("lite_session_promotions_dropped_total").Value()
	if int(fed+dropped) != totalPromoted {
		t.Fatalf("promotions fed=%d dropped=%d, want sum %d", fed, dropped, totalPromoted)
	}
	if dropped != 0 {
		t.Fatalf("%d promotions dropped with an idle queue", dropped)
	}
	if v := s.reg.Counter("lite_session_violations_total").Value(); v != 0 {
		t.Fatalf("violations counter = %d, want 0", v)
	}
}
