package core

import (
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"llhsc/internal/obs"
)

// waitOrFail blocks until ch closes, failing the test instead of hanging
// when the pool never lets it.
func waitOrFail(t *testing.T, ch <-chan struct{}, what string) bool {
	t.Helper()
	select {
	case <-ch:
		return true
	case <-time.After(5 * time.Second):
		t.Errorf("timed out waiting for %s", what)
		return false
	}
}

// TestRunPoolLowerIndexSurvivesHigherFailure forces the schedule a
// cancel-all-siblings pool gets wrong: job 1 fails first, and job 0
// fails only afterwards. Job 1's failure must cancel job 2 (higher
// index) but not job 0, and the reported error must be job 0's — the
// one a serial run reports.
func TestRunPoolLowerIndexSurvivesHigherFailure(t *testing.T) {
	err0, err1 := errors.New("job 0"), errors.New("job 1")
	started2 := make(chan struct{})
	canceled2 := make(chan struct{})
	var ctx0Err error
	err := runPool(context.Background(), 3, nil, make([]string, 3), func(ctx context.Context, i int, _ *obs.Span) error {
		switch i {
		case 0:
			// Job 1's failure has been handled once job 2 is canceled.
			waitOrFail(t, canceled2, "job 2's cancellation")
			ctx0Err = ctx.Err()
			return err0
		case 1:
			waitOrFail(t, started2, "job 2 to start")
			return err1
		default:
			close(started2)
			if waitOrFail(t, ctx.Done(), "job 1's failure to cancel job 2") {
				close(canceled2)
			}
			return ctx.Err()
		}
	})
	if err != err0 {
		t.Errorf("runPool returned %v, want job 0's error", err)
	}
	if ctx0Err != nil {
		t.Errorf("job 0's context was canceled (%v) by a higher-index failure", ctx0Err)
	}
}

// TestRunPoolRepanicsAfterDrain: a panicking job is recovered on its
// worker and re-raised on the caller only after the other running jobs
// have returned.
func TestRunPoolRepanicsAfterDrain(t *testing.T) {
	var job0Done atomic.Bool
	panicked := make(chan struct{})
	var recovered interface{}
	func() {
		defer func() { recovered = recover() }()
		runPool(context.Background(), 2, nil, make([]string, 3), func(ctx context.Context, i int, _ *obs.Span) error {
			switch i {
			case 0:
				waitOrFail(t, panicked, "job 1 to panic")
				time.Sleep(10 * time.Millisecond) // widens the window in which a pool that re-raises early fails this test
				job0Done.Store(true)
			case 1:
				close(panicked)
				panic("job 1 exploded")
			}
			return nil
		})
	}()
	if recovered != "job 1 exploded" {
		t.Fatalf("recovered %v, want job 1's panic value", recovered)
	}
	if !job0Done.Load() {
		t.Error("panic re-raised before job 0 finished")
	}
}

// TestRunPoolSingleWorkerIsSerial: with one worker the jobs run in index
// order, each under its own span, and nothing runs — or leaves a span —
// after the first failure.
func TestRunPoolSingleWorkerIsSerial(t *testing.T) {
	errStop := errors.New("job 2")
	root := obs.NewSpan("run")
	var ran []int
	err := runPool(context.Background(), 1, root, []string{"j0", "j1", "j2", "j3", "j4"},
		func(ctx context.Context, i int, span *obs.Span) error {
			if span == nil {
				t.Errorf("job %d got no span", i)
			}
			ran = append(ran, i)
			if i == 2 {
				return errStop
			}
			return nil
		})
	if err != errStop {
		t.Errorf("runPool returned %v, want job 2's error", err)
	}
	if want := []int{0, 1, 2}; !reflect.DeepEqual(ran, want) {
		t.Errorf("ran %v, want %v", ran, want)
	}
	var spans []string
	for _, c := range root.Snapshot().Children {
		spans = append(spans, c.Name)
	}
	if want := []string{"j0", "j1", "j2"}; !reflect.DeepEqual(spans, want) {
		t.Errorf("spans %v, want %v", spans, want)
	}
}
