package sfcd_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"sfccover/internal/core"
	"sfccover/internal/core/coretest"
	"sfccover/internal/engine"
	"sfccover/internal/persist"
	"sfccover/internal/sfcd"
	"sfccover/internal/subscription"
)

var bg = context.Background()

// follower bundles one follower daemon tailing a primary's WAL stream.
type follower struct {
	eng   *engine.Engine
	store *persist.Store
	srv   *sfcd.Server
	addr  string
}

// startFollower boots a follower over dir streaming from primaryAddr,
// with the same engine configuration as startDaemon so post-promotion
// answers are comparable bit for bit.
func startFollower(t *testing.T, schema *subscription.Schema, dir, primaryAddr string) *follower {
	t.Helper()
	eng, err := engine.New(engine.Config{
		Detector:  core.Config{Schema: schema, Mode: core.ModeExact, Seed: 5},
		Shards:    4,
		Partition: engine.PartitionPrefix,
	})
	if err != nil {
		t.Fatal(err)
	}
	store, err := persist.Open(dir, schema, persist.Options{})
	if err != nil {
		eng.Close()
		t.Fatal(err)
	}
	srv, err := sfcd.NewFollowerServer(eng, store, sfcd.ServerConfig{}, primaryAddr)
	if err != nil {
		store.Close()
		eng.Close()
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return &follower{eng: eng, store: store, srv: srv, addr: addr.String()}
}

// stop tears the follower down (idempotent against a test that already
// closed parts of it).
func (f *follower) stop(t *testing.T) {
	t.Helper()
	f.srv.Close()
	f.eng.Close()
	if err := f.store.Close(); err != nil {
		t.Fatal(err)
	}
}

// awaitPos waits for the follower's stream position to reach target.
func (f *follower) awaitPos(t *testing.T, target uint64) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for f.store.Pos() < target {
		if time.Now().After(deadline) {
			t.Fatalf("follower stuck at stream position %d of %d", f.store.Pos(), target)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFollowerStreamsAndServesAfterPromotion is the end-to-end
// replication pin at the daemon layer: a follower tails the primary's
// WAL over the wire, refuses state ops with a typed not_primary error
// while following, and after the primary dies a promote over the wire
// turns it into a primary serving bit-identical covering answers with
// the primary's subscription IDs intact.
func TestFollowerStreamsAndServesAfterPromotion(t *testing.T) {
	schema := subscription.MustSchema(8, "x", "y")
	primary := startDaemon(t, schema, t.TempDir())
	fol := startFollower(t, schema, t.TempDir(), primary.client.Addr())
	defer fol.stop(t)

	// Build state on the primary: the anti-chain family in the shared
	// namespace plus a private link, with a couple of removes so the
	// stream carries both record kinds.
	shared, err := primary.client.Provider("")
	if err != nil {
		t.Fatal(err)
	}
	linked, err := primary.client.Provider("L")
	if err != nil {
		t.Fatal(err)
	}
	var sids []uint64
	for i := 0; i < 16; i++ {
		id, err := shared.Insert(antiRect(t, schema, i))
		if err != nil {
			t.Fatal(err)
		}
		sids = append(sids, id)
	}
	for i := 0; i < 6; i++ {
		if _, err := linked.Insert(antiRect(t, schema, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := shared.Remove(sids[15]); err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"":  remoteFingerprint(t, schema, shared),
		"L": remoteFingerprint(t, schema, linked),
	}
	wantHeld, err := coretest.HeldOf(primary.eng)
	if err != nil {
		t.Fatal(err)
	}

	fol.awaitPos(t, primary.store.Pos())

	// A plain client may dial a follower on purpose (ping, metrics,
	// promote); state ops there fail typed, per op.
	fc, err := sfcd.Dial(fol.addr, schema)
	if err != nil {
		t.Fatalf("plain dial to follower: %v", err)
	}
	defer fc.Close()
	if err := fc.Ping(bg); err != nil {
		t.Fatalf("ping on follower: %v", err)
	}
	fshared, err := fc.Provider("")
	if err != nil {
		t.Fatal(err)
	}
	_, err = fshared.Insert(antiRect(t, schema, 3))
	var se *sfcd.ServerError
	if !errors.As(err, &se) || se.Code != sfcd.CodeNotPrimary {
		t.Fatalf("insert on follower error = %v, want ServerError code %q", err, sfcd.CodeNotPrimary)
	}

	// Kill the primary, promote the follower over the wire. A second
	// promote is a documented no-op.
	primary.stop(t)
	if err := fc.Promote(bg); err != nil {
		t.Fatalf("promote: %v", err)
	}
	if err := fc.Promote(bg); err != nil {
		t.Fatalf("second promote: %v", err)
	}
	if got := fol.srv.Role(); got != sfcd.RolePrimary {
		t.Fatalf("role after promote = %q, want %q", got, sfcd.RolePrimary)
	}

	flinked, err := fc.Provider("L")
	if err != nil {
		t.Fatal(err)
	}
	if got := remoteFingerprint(t, schema, fshared); got != want[""] {
		t.Fatalf("shared fingerprint diverged after promotion\n got %s\nwant %s", got, want[""])
	}
	if got := remoteFingerprint(t, schema, flinked); got != want["L"] {
		t.Fatalf("link fingerprint diverged after promotion\n got %s\nwant %s", got, want["L"])
	}
	// One id space, below the wire too: the promoted engine itself holds
	// what the primary's engine held, id for id.
	gotHeld, err := coretest.HeldOf(fol.eng)
	if err != nil || len(gotHeld) != len(wantHeld) {
		t.Fatalf("promoted engine enumerates %d subscriptions (%v), the primary's held %d", len(gotHeld), err, len(wantHeld))
	}
	for i, h := range wantHeld {
		if gotHeld[i].ID != h.ID || gotHeld[i].Rect != h.Rect {
			t.Fatalf("promoted engine entry %d is id %d, the primary's engine held id %d there", i, gotHeld[i].ID, h.ID)
		}
	}

	// SID continuity: an ID the primary allocated addresses the same
	// subscription on the promoted follower.
	before := fshared.Len()
	if err := fshared.Remove(sids[3]); err != nil {
		t.Fatalf("remove primary-allocated sid on promoted follower: %v", err)
	}
	if got := fshared.Len(); got != before-1 {
		t.Fatalf("len after remove = %d, want %d", got, before-1)
	}
}

// TestClientFailoverAcrossPromotion drives the failover client through
// the full kill→promote sequence: a client holding both addresses keeps
// its subscription IDs valid, lands on the follower's address, and
// serves identical covering answers once the replacement connection is
// up. A background hammer pins that every error surfaced during the
// outage is typed — ErrConnectionLost or a context deadline — never a
// silent wrong answer or an unknown failure.
func TestClientFailoverAcrossPromotion(t *testing.T) {
	schema := subscription.MustSchema(8, "x", "y")
	primary := startDaemon(t, schema, t.TempDir())
	fol := startFollower(t, schema, t.TempDir(), primary.client.Addr())
	defer fol.stop(t)

	ctx, cancel := context.WithTimeout(bg, 30*time.Second)
	defer cancel()
	cl, err := sfcd.DialContext(ctx, sfcd.DialConfig{
		Addrs:          []string{primary.client.Addr(), fol.addr},
		Schema:         schema,
		RequestTimeout: 250 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	p, err := cl.Provider("")
	if err != nil {
		t.Fatal(err)
	}
	var sids []uint64
	for i := 0; i < 16; i++ {
		id, err := p.Insert(antiRect(t, schema, i))
		if err != nil {
			t.Fatal(err)
		}
		sids = append(sids, id)
	}
	want := remoteFingerprint(t, schema, p)
	fol.awaitPos(t, primary.store.Pos())

	// Hammer pings through the outage; every failure must be typed.
	var (
		hammerWg   sync.WaitGroup
		hammerStop = make(chan struct{})
		badErrs    = make(chan error, 64)
	)
	hammerWg.Add(1)
	go func() {
		defer hammerWg.Done()
		for {
			select {
			case <-hammerStop:
				return
			default:
			}
			hctx, hcancel := context.WithTimeout(bg, 50*time.Millisecond)
			err := cl.Ping(hctx)
			hcancel()
			if err != nil && !errors.Is(err, sfcd.ErrConnectionLost) &&
				!errors.Is(err, context.DeadlineExceeded) {
				select {
				case badErrs <- err:
				default:
				}
			}
		}
	}()

	primary.stop(t)
	if err := fol.srv.Promote(); err != nil {
		t.Fatal(err)
	}

	// Wait for the replacement connection, the same gate a real overlay
	// applies before resuming traffic.
	deadline := time.Now().Add(15 * time.Second)
	for cl.FailoverStats().Reconnects == 0 {
		if time.Now().After(deadline) {
			t.Fatal("client never reconnected after failover")
		}
		time.Sleep(time.Millisecond)
	}
	close(hammerStop)
	hammerWg.Wait()
	select {
	case err := <-badErrs:
		t.Fatalf("untyped error surfaced during outage: %v", err)
	default:
	}

	if got := cl.Addr(); got != fol.addr {
		t.Fatalf("client address after failover = %q, want follower %q", got, fol.addr)
	}
	fs := cl.FailoverStats()
	if fs.ConnLost == 0 || fs.Failovers == 0 {
		t.Fatalf("failover stats = %+v, want ConnLost and Failovers > 0", fs)
	}
	if got := remoteFingerprint(t, schema, p); got != want {
		t.Fatalf("fingerprint diverged across failover\n got %s\nwant %s", got, want)
	}
	if err := p.Remove(sids[0]); err != nil {
		t.Fatalf("remove primary-allocated sid after failover: %v", err)
	}
}

// TestClientCancelFailRace hammers one client from many goroutines with
// near-expired contexts — first against a healthy daemon, then through
// the daemon's death — pinning the pending-map cleanup under -race: a
// cancelled waiter and the reader's delivery must never scribble on a
// pooled request, and every surfaced error stays typed.
func TestClientCancelFailRace(t *testing.T) {
	schema := subscription.MustSchema(8, "x", "y")
	d := startDaemon(t, schema, t.TempDir())

	const goroutines = 8
	var wg sync.WaitGroup
	bad := make(chan error, 64)
	hammer := func(cl *sfcd.Client, iters int) {
		defer wg.Done()
		rng := rand.New(rand.NewSource(time.Now().UnixNano()))
		for i := 0; i < iters; i++ {
			ctx, cancel := context.WithTimeout(bg, time.Duration(rng.Intn(200))*time.Microsecond)
			err := cl.Ping(ctx)
			cancel()
			if err != nil && !errors.Is(err, context.DeadlineExceeded) &&
				!errors.Is(err, context.Canceled) &&
				!errors.Is(err, sfcd.ErrConnectionLost) &&
				!errors.Is(err, sfcd.ErrClientClosed) {
				select {
				case bad <- err:
				default:
				}
			}
		}
	}

	// Phase 1: healthy daemon. After the storm the client must still
	// work — no leaked or corrupted pending state.
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go hammer(d.client, 200)
	}
	wg.Wait()
	if err := d.client.Ping(bg); err != nil {
		t.Fatalf("client unhealthy after cancel storm: %v", err)
	}

	// Phase 2: same storm with the daemon dying mid-flight.
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go hammer(d.client, 400)
	}
	time.Sleep(2 * time.Millisecond)
	d.srv.Close()
	wg.Wait()
	d.client.Close() //nolint:errcheck // teardown
	d.eng.Close()
	if err := d.store.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-bad:
		t.Fatalf("untyped error under cancel/fail race: %v", err)
	default:
	}
}

// TestReplicateWireStream exercises the replicate op at the wire level,
// the way a non-Go follower would: hello, then replicate from position
// zero, reading frames until the stream catches up with the store. The
// frames must decode to the exact WAL records in commit order.
func TestReplicateWireStream(t *testing.T) {
	schema := subscription.MustSchema(8, "x", "y")
	d := startDaemon(t, schema, t.TempDir())
	defer d.stop(t)

	shared, err := d.client.Provider("")
	if err != nil {
		t.Fatal(err)
	}
	var sids []uint64
	for i := 0; i < 4; i++ {
		id, err := shared.Insert(antiRect(t, schema, i))
		if err != nil {
			t.Fatal(err)
		}
		sids = append(sids, id)
	}
	if err := shared.Remove(sids[1]); err != nil {
		t.Fatal(err)
	}
	target := d.store.Pos()

	conn := sfcd.DialRaw(t, d.client.Addr())
	if resp := conn.Do(sfcd.Request{ID: 1, Op: sfcd.OpHello}); !resp.OK || resp.Role != sfcd.RolePrimary {
		t.Fatalf("hello response = %+v", resp)
	}
	conn.Send(sfcd.RequestFrame(sfcd.Request{ID: 2, Op: sfcd.OpReplicate, Pos: 0}))

	var run []byte
	next := uint64(0)
	for next < target {
		resp, err := conn.Recv()
		if err != nil {
			t.Fatalf("stream ended early: %v", err)
		}
		if !resp.OK || resp.ID != 2 || resp.Op != sfcd.OpReplicate {
			t.Fatalf("stream frame = %+v, want OK with rep", resp)
		}
		f := resp.Rep
		if f.Reset {
			t.Fatalf("fresh follower from pos 0 got a reset dump: %+v", f)
		}
		if f.Base != next {
			t.Fatalf("frame base = %d, want contiguous %d", f.Base, next)
		}
		batch := walRecords(t, f.Recs)
		if f.Pos != f.Base+uint64(len(batch)) {
			t.Fatalf("frame pos = %d, want base %d + %d records", f.Pos, f.Base, len(batch))
		}
		run = append(run, f.Recs...)
		next = f.Pos
	}

	recs := walRecords(t, run)
	if uint64(len(recs)) != target {
		t.Fatalf("streamed %d records, store committed %d", len(recs), target)
	}
	// 4 inserts then 1 remove, in commit order.
	for i := 0; i < 4; i++ {
		if recs[i].op != 'A' || recs[i].sid != sids[i] {
			t.Fatalf("record %d = %+v, want add of sid %d", i, recs[i], sids[i])
		}
	}
	if recs[4].op != 'R' || recs[4].sid != sids[1] {
		t.Fatalf("record 4 = %+v, want remove of sid %d", recs[4], sids[1])
	}
}

// walRecord is what TestReplicateWireStream reads of a streamed record:
// its op byte ('A' add, 'R' remove) and its sid.
type walRecord struct {
	op  byte
	sid uint64
}

// walRecords reads the op and sid of every record of a run of WAL
// bytes (uvarint bodyLen | op | uvarint len(link) | link | uvarint sid
// | … | crc32), cut at the boundaries persist.RecordLen gives.
func walRecords(t *testing.T, run []byte) []walRecord {
	t.Helper()
	var out []walRecord
	for len(run) > 0 {
		k := persist.RecordLen(run)
		_, n := binary.Uvarint(run)
		body := run[n:]
		linkLen, m := binary.Uvarint(body[1:])
		sid, _ := binary.Uvarint(body[1+m+int(linkLen):])
		out = append(out, walRecord{op: body[0], sid: sid})
		run = run[k:]
	}
	return out
}

// TestLargeBatchOnLongLinkReplicates: every streamed record repeats its
// link name, so 600 subscriptions on a 16 KiB-named link take ~9.8 MB of
// WAL records — one frame past MaxFrameBytes when frames are cut by
// record count alone, which the follower refuses, reconnects and is sent
// again, forever. Frames are cut by bytes too: a follower tailing live
// converges through the batch, and so does one whose divergent position
// gets the same state as a reset dump.
func TestLargeBatchOnLongLinkReplicates(t *testing.T) {
	schema := subscription.MustSchema(8, "x", "y")
	primary := startDaemon(t, schema, t.TempDir())
	defer primary.stop(t)
	live := startFollower(t, schema, t.TempDir(), primary.client.Addr())
	defer live.stop(t)

	link := strings.Repeat("l", 16<<10)
	p, err := primary.client.Provider(link)
	if err != nil {
		t.Fatal(err)
	}
	subs := make([]*subscription.Subscription, 600)
	for i := range subs {
		subs[i] = subscription.MustParse(schema, fmt.Sprintf("x in [%d,%d] && y >= %d", i%200, i%200+30, i/200))
	}
	for _, r := range p.AddBatch(subs) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	target := primary.store.Pos()
	live.awaitPos(t, target)
	if n := len(live.store.Held(link)); n != len(subs) {
		t.Fatalf("live follower holds %d subscriptions on the link, want %d", n, len(subs))
	}

	// A follower ahead of the primary has a divergent history: it is
	// answered with a reset image of the primary's whole state. Its dir
	// is put at position target+100 by logging that many inserts.
	dir := t.TempDir()
	st, err := persist.Open(dir, schema, persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.New(engine.Config{Detector: core.Config{Schema: schema}})
	if err != nil {
		t.Fatal(err)
	}
	ahead, err := st.Durable("", eng)
	if err != nil {
		t.Fatal(err)
	}
	more := make([]*subscription.Subscription, target+100)
	for i := range more {
		more[i] = subs[i%len(subs)]
	}
	if _, err := ahead.InsertBatch(more); err != nil {
		t.Fatal(err)
	}
	ahead.Close()
	if st.Pos() != target+100 {
		t.Fatalf("the divergent dir is at position %d, want %d", st.Pos(), target+100)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	reset := startFollower(t, schema, dir, primary.client.Addr())
	defer reset.stop(t)
	deadline := time.Now().Add(15 * time.Second)
	for reset.store.Pos() != target || len(reset.store.Held(link)) != len(subs) {
		if time.Now().After(deadline) {
			t.Fatalf("reset follower at position %d holding %d on the link, want %d and %d", reset.store.Pos(), len(reset.store.Held(link)), target, len(subs))
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFollowerLogIsPrimaryLog: a follower logs the records it streams
// verbatim, so after one history — both record kinds, a batch, a named
// link — its WAL holds the primary's record bytes, byte for byte.
func TestFollowerLogIsPrimaryLog(t *testing.T) {
	schema := subscription.MustSchema(8, "x", "y")
	pdir, fdir := t.TempDir(), t.TempDir()
	primary := startDaemon(t, schema, pdir)
	defer primary.stop(t)
	fol := startFollower(t, schema, fdir, primary.client.Addr())
	defer fol.stop(t)

	shared, err := primary.client.Provider("")
	if err != nil {
		t.Fatal(err)
	}
	linked, err := primary.client.Provider("L")
	if err != nil {
		t.Fatal(err)
	}
	var sids []uint64
	for i := 0; i < 8; i++ {
		id, err := shared.Insert(antiRect(t, schema, i))
		if err != nil {
			t.Fatal(err)
		}
		sids = append(sids, id)
	}
	var batch []*subscription.Subscription
	for i := 8; i < 16; i++ {
		batch = append(batch, antiRect(t, schema, i))
	}
	for _, r := range linked.AddBatch(batch) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	for _, err := range shared.RemoveBatch(sids[2:5]) {
		if err != nil {
			t.Fatal(err)
		}
	}
	fol.awaitPos(t, primary.store.Pos())

	records := func(dir string) []byte {
		seg, end := finalWALSegment(t, dir)
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		return data[len("SFCW1\n"):end]
	}
	want, got := records(pdir), records(fdir)
	if n := len(walRecords(t, want)); uint64(n) != primary.store.Pos() {
		t.Fatalf("the primary's segment holds %d records, its position is %d", n, primary.store.Pos())
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("the follower's log (%d bytes) is not the primary's (%d bytes)", len(got), len(want))
	}
}
