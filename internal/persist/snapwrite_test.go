package persist

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"sfccover/internal/core"
	"sfccover/internal/subscription"
)

// A snapshot holds the cut only for its capture; its write phase — sort,
// encode, write, fsync, rename, compaction — runs beside live writers.
// These tests cover that window: a write phase that fails, one a crash
// interrupts, and the hold and length a snapshot reports.

// nextSnapshotSeq is the sequence the next snapshot will be written
// under: the segment its rotation opens.
func nextSnapshotSeq(st *Store) uint64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.w.seq + 1
}

// churnWrapped runs churnConcurrently on eng and det, two writers each,
// until the returned stop is called, which waits for them.
func churnWrapped(subs []*subscription.Subscription, eng, det *DurableProvider, ops *atomic.Int64) (stop func()) {
	done := make(chan struct{})
	var writers sync.WaitGroup
	for w, p := range []*DurableProvider{eng, eng, det, det} {
		writers.Add(1)
		go func() {
			defer writers.Done()
			churnConcurrently(p, subs, rand.New(rand.NewSource(int64(w))), ops, done)
		}()
	}
	return func() {
		close(done)
		writers.Wait()
	}
}

// TestSnapshotWriteFailureKeepsStoreWritable fails the write phase of
// several snapshots while writers run on two wrapped links — a directory
// sits where each snapshot's temp file goes, so its create fails — and
// checks that each failure is reported, that the writers keep landing
// through them, that the previous snapshot is kept, and that a reopen
// recovers exactly the providers' final state.
func TestSnapshotWriteFailureKeepsStoreWritable(t *testing.T) {
	schema := testSchema()
	dir := t.TempDir()
	st, err := Open(dir, schema, Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng, det := wrapPair(t, st)
	subs := family(t, schema, 0, familyK+1)
	for _, p := range []*DurableProvider{eng, det} {
		if _, err := p.InsertBatch(subs); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Snapshot(); err != nil {
		t.Fatal(err)
	}
	kept, err := listSeqs(dir, "snap-", ".snap")
	if err != nil || len(kept) != 1 {
		t.Fatalf("after the first snapshot the dir holds snapshots %v (%v), want one", kept, err)
	}
	const attempts = 5
	next := nextSnapshotSeq(st)
	for seq := next; seq < next+attempts; seq++ {
		if err := os.Mkdir(filepath.Join(dir, snapshotName(seq)+".tmp"), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	var ops atomic.Int64
	stop := churnWrapped(subs, eng, det, &ops)
	// landed waits for the writers' next ops: a snapshot with nothing
	// logged since the last one would return at once.
	landed := func(after string) {
		for before, deadline := ops.Load(), time.Now().Add(10*time.Second); ops.Load() < before+20; {
			if time.Now().After(deadline) {
				stop()
				t.Fatalf("the writers stopped landing %s", after)
			}
			time.Sleep(time.Millisecond)
		}
	}
	for i := 0; i < attempts; i++ {
		landed(fmt.Sprintf("after %d failed snapshots", i))
		if err := st.Snapshot(); err == nil || !strings.Contains(err.Error(), "creating snapshot") {
			stop()
			t.Fatalf("snapshot %d over a directory at its temp file's name = %v, want its create to fail", i, err)
		}
	}
	landed("after the last failed snapshot")
	stop()
	if snaps, err := listSeqs(dir, "snap-", ".snap"); err != nil || !slices.Equal(snaps, kept) {
		t.Fatalf("after the failed snapshots the dir holds snapshots %v (%v), want the previous one %v", snaps, err, kept)
	}
	for _, p := range []*DurableProvider{eng, det} {
		id, err := p.Insert(subs[0])
		if err == nil {
			err = p.Remove(id)
		}
		if err != nil {
			t.Fatalf("link %q refuses writes after the failed snapshots: %v", p.link, err)
		}
	}
	want := map[string][]core.Held{"": mustEnumerate(t, eng), "x": mustEnumerate(t, det)}
	eng.Close()
	det.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st, err = Open(dir, schema, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for link, held := range want {
		requireSameHeld(t, fmt.Sprintf("link %q after reopen", link), st.Held(link), held)
	}
}

// TestSnapshotHoldWithinItsLength takes snapshots while writers run and
// checks what the store reports of the last one: a cut hold above zero
// and no longer than the whole snapshot, in StoreStats and in a wrapped
// provider's Stats alike, and both zero before any snapshot.
func TestSnapshotHoldWithinItsLength(t *testing.T) {
	schema := testSchema()
	st, err := Open(t.TempDir(), schema, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	eng, det := wrapPair(t, st)
	defer eng.Close()
	defer det.Close()
	if ss := st.Stats(); ss.SnapshotHold != 0 || ss.SnapshotTime != 0 {
		t.Fatalf("before any snapshot the store reports hold %v and length %v, want zero", ss.SnapshotHold, ss.SnapshotTime)
	}
	subs := family(t, schema, 0, familyK+1)
	var ops atomic.Int64
	stop := churnWrapped(subs, eng, det, &ops)
	for i := 0; i < 3; i++ {
		for before := ops.Load(); ops.Load() < before+20; {
			time.Sleep(time.Millisecond)
		}
		if err := st.Snapshot(); err != nil {
			stop()
			t.Fatal(err)
		}
	}
	stop()
	ss, ps := st.Stats(), eng.Stats()
	if ss.SnapshotHold <= 0 || ss.SnapshotHold > ss.SnapshotTime {
		t.Fatalf("the last snapshot reports hold %v and length %v, want 0 < hold <= length", ss.SnapshotHold, ss.SnapshotTime)
	}
	if ps.SnapshotHold != ss.SnapshotHold || ps.SnapshotTime != ss.SnapshotTime {
		t.Fatalf("the provider reports hold %v and length %v, the store %v and %v", ps.SnapshotHold, ps.SnapshotTime, ss.SnapshotHold, ss.SnapshotTime)
	}
}

// killSnapshotChildEnv marks the child of
// TestKilledMidSnapshotWriteKeepsAckedRecords and names its data dir.
const killSnapshotChildEnv = "SFCCOVER_PERSIST_KILL_SNAPSHOT_DIR"

// TestKilledMidSnapshotWriteKeepsAckedRecords kills a process while a
// snapshot's write phase is in flight and writers land beside it. The
// child (this test binary, re-executed) wraps an engine link, snapshots
// it halfway through a load, then starts a second snapshot, after the
// load's second half, whose temp file is a FIFO: the
// write phase blocks opening it, after the capture and the rotation, with
// the cut released. The child inserts and removes beside it, acking each
// write on stdout, and SIGKILLs itself. Recovery must hold exactly the
// acked state: what the first snapshot holds plus every later acked
// write, replayed from the segment the capture retired and the one it
// opened.
func TestKilledMidSnapshotWriteKeepsAckedRecords(t *testing.T) {
	schema := testSchema()
	if dir := os.Getenv(killSnapshotChildEnv); dir != "" {
		killedMidSnapshot(t, schema, dir)
		return
	}
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run=^TestKilledMidSnapshotWriteKeepsAckedRecords$", "-test.count=1")
	cmd.Env = append(os.Environ(), killSnapshotChildEnv+"="+dir)
	out, err := cmd.Output()
	var exit *exec.ExitError
	if !errors.As(err, &exit) {
		t.Fatalf("child exited with %v, want a SIGKILL; output:\n%s", err, out)
	}
	if ws, ok := exit.Sys().(syscall.WaitStatus); !ok || !ws.Signaled() || ws.Signal() != syscall.SIGKILL {
		t.Fatalf("child ended with %v, want SIGKILL; output:\n%s", exit, out)
	}
	model := map[uint64]subscription.Rect{}
	writes := 0
	for _, line := range strings.Split(string(out), "\n") {
		f := strings.Fields(line)
		if len(f) < 2 || (f[0] != "add" && f[0] != "rem") {
			continue
		}
		id, err := strconv.ParseUint(f[1], 10, 64)
		if err != nil {
			t.Fatalf("bad ack line %q", line)
		}
		if f[0] == "rem" {
			delete(model, id)
		} else {
			i, err := strconv.Atoi(f[2])
			if err != nil {
				t.Fatalf("bad ack line %q", line)
			}
			model[id] = rect(t, schema, i).Rect()
		}
		writes++
	}
	if writes != killSnapshotBase+2*killSnapshotWrites {
		t.Fatalf("child acked %d writes, want %d; output:\n%s", writes, killSnapshotBase+2*killSnapshotWrites, out)
	}
	if snaps, err := listSeqs(dir, "snap-", ".snap"); err != nil || len(snaps) != 1 {
		t.Fatalf("the dir holds snapshots %v (%v), want the first one alone", snaps, err)
	}
	st, err := Open(dir, schema, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	held := st.Held("")
	if len(held) != len(model) {
		t.Fatalf("recovery holds %d subscriptions, the acked writes leave %d", len(held), len(model))
	}
	for _, h := range held {
		if r, ok := model[h.ID]; !ok || r != h.Rect {
			t.Fatalf("recovered id %d is not held as acked", h.ID)
		}
	}
}

// killSnapshotBase is how many subscriptions the child's first snapshot
// holds; killSnapshotWrites how many inserts, and as many removes, it
// acks while the second snapshot's write phase is blocked.
const (
	killSnapshotBase   = 2000
	killSnapshotWrites = 1000
)

// killedMidSnapshot is the child half of
// TestKilledMidSnapshotWriteKeepsAckedRecords.
func killedMidSnapshot(t *testing.T, schema *subscription.Schema, dir string) {
	st, err := Open(dir, schema, Options{SyncEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	d, err := st.Durable("", newTestEngine(schema, 4))
	if err != nil {
		t.Fatal(err)
	}
	var ids []uint64
	insert := func(i int) {
		id, err := d.Insert(rect(t, schema, i%familyK))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		fmt.Printf("add %d %d\n", id, i%familyK) // unbuffered: on the pipe before the next write
	}
	for i := 0; i < killSnapshotBase; i++ {
		insert(i)
		if i == killSnapshotBase/2 {
			if err := st.Snapshot(); err != nil {
				t.Fatal(err)
			}
		}
	}
	next := nextSnapshotSeq(st)
	if err := syscall.Mkfifo(filepath.Join(dir, snapshotName(next)+".tmp"), 0o644); err != nil {
		t.Fatal(err)
	}
	go st.Snapshot() //nolint:errcheck // it never returns: the process dies in its write phase
	// The capture opens the next segment under the cut; a write that
	// lands after the segment exists waited for the cut's release.
	for {
		if _, err := os.Stat(filepath.Join(dir, segmentName(next))); err == nil {
			break
		}
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < killSnapshotWrites; i++ {
		insert(killSnapshotBase + i)
		id := ids[i]
		if err := d.Remove(id); err != nil {
			t.Fatal(err)
		}
		fmt.Printf("rem %d\n", id)
	}
	syscall.Kill(os.Getpid(), syscall.SIGKILL) //nolint:errcheck // the process ends here
	select {}
}

// TestTailResetUnderWritesHasNoGap opens reset-dump streams while writers
// run on two wrapped links. A dump's records are encoded after the cut is
// released, so the test holds the cut's promise: the dump is the state at
// its position, and the live batches after it start exactly there. A
// follower installs each dump, applies the stream behind it (re-tailing
// from its own position if it lags), and must end holding the primary's
// state once the writers stop.
func TestTailResetUnderWritesHasNoGap(t *testing.T) {
	schema := testSchema()
	primary, err := Open(t.TempDir(), schema, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	eng, det := wrapPair(t, primary)
	defer eng.Close()
	defer det.Close()
	subs := family(t, schema, 0, familyK+1)
	var ops atomic.Int64
	stop := churnWrapped(subs, eng, det, &ops)
	stopped := false
	defer func() {
		if !stopped {
			stop()
		}
	}()
	for round := 0; round < 5; round++ {
		follower, err := Open(t.TempDir(), schema, Options{})
		if err != nil {
			t.Fatal(err)
		}
		tail, err := primary.Tail(primary.Pos() + 1<<40) // ahead of the primary: a reset dump
		if err != nil {
			t.Fatal(err)
		}
		first, err := tail.Next(nil)
		if err != nil || !first.Reset {
			t.Fatalf("round %d: the first batch is %+v (%v), want a reset dump", round, first.Reset, err)
		}
		applyBatch(t, follower, first)
		// Follow the live stream for a while; in the last round, stop the
		// writers and follow it to the primary's final position.
		wait := 50 * time.Millisecond
		if round == 4 {
			stop()
			stopped = true
			wait = 10 * time.Second
		}
		cancel := make(chan struct{})
		timer := time.AfterFunc(wait, func() { close(cancel) })
		for !stopped || follower.Pos() != primary.Pos() {
			b, err := tail.Next(cancel)
			if errors.Is(err, ErrTailerLagged) {
				tail.Close()
				if tail, err = primary.Tail(follower.Pos()); err != nil {
					t.Fatal(err)
				}
				continue
			}
			if errors.Is(err, ErrTailerClosed) {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			if !b.Reset && b.Base != follower.Pos() {
				t.Fatalf("round %d: a batch starts at %d, the follower is at %d", round, b.Base, follower.Pos())
			}
			applyBatch(t, follower, b)
		}
		timer.Stop()
		tail.Close()
		if stopped {
			if follower.Pos() != primary.Pos() {
				t.Fatalf("the follower stopped at %d, the primary is at %d", follower.Pos(), primary.Pos())
			}
			demandSameState(t, follower, primary)
		}
		if err := follower.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
