package journal

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/dyndoc"
	"repro/internal/faultfs"
)

// fetchVia is the test transport: leader Ship, through the real wire
// codec, into the follower — every fetch exercises EncodeShipChunk and
// DecodeShipStream exactly like the HTTP path does.
func fetchVia(j *Journal) FetchFunc {
	return func(from uint64, max int) (*ShipChunk, error) {
		chunk, err := j.Ship(from, max)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := EncodeShipChunk(&buf, chunk); err != nil {
			return nil, err
		}
		return DecodeShipStream(&buf, from)
	}
}

// deadLeader is the transport of an unreachable leader.
func deadLeader(from uint64, max int) (*ShipChunk, error) {
	return nil, errors.New("leader unreachable")
}

func leaderWrite(t *testing.T, j *Journal, d *dyndoc.Document, name string) {
	t.Helper()
	root := rootID(t, d)
	if err := applyAndAppend(t, j, d, insertEdit(root, name))(); err != nil {
		t.Fatal(err)
	}
}

func TestFollowerRequiresFetch(t *testing.T) {
	if f, err := OpenFollower(FollowerConfig{Dir: t.TempDir(), Manual: true}); err == nil {
		_ = f.Close()
		t.Fatal("OpenFollower accepted a nil Fetch")
	}
}

func TestFollowerFetchCatchUpAndRestart(t *testing.T) {
	ldir, fdir := t.TempDir(), t.TempDir()
	// Attribute nodes ride along: snapshot bootstrap, adoption after a
	// leader checkpoint and the restart from the mirror all rebuild the
	// document from checkpoint XML, whose id list counts them.
	d := mustDoc(t, `<root><meta lang="en" rev="a&amp;b">x</meta></root>`)
	j, err := Create(Config{Dir: ldir, Scheme: testScheme}, d)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	leaderWrite(t, j, d, "a")
	leaderWrite(t, j, d, "b")

	// From-scratch bootstrap pulls the checkpoint snapshot plus tail.
	f, err := OpenFollower(FollowerConfig{Dir: fdir, Fetch: fetchVia(j), Manual: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := f.Doc().XML(); got != d.XML() {
		t.Fatalf("scratch bootstrap = %s, want %s", got, d.XML())
	}

	// Plain continuation.
	leaderWrite(t, j, d, "c")
	if err := f.Poll(); err != nil {
		t.Fatal(err)
	}
	if got := f.Doc().XML(); got != d.XML() {
		t.Fatalf("after poll = %s, want %s", got, d.XML())
	}

	// Leader checkpoint compacts batches away; the next fetch from an
	// old position adopts the snapshot.
	if err := j.Checkpoint(d); err != nil {
		t.Fatal(err)
	}
	leaderWrite(t, j, d, "e")
	if err := f.Poll(); err != nil {
		t.Fatal(err)
	}
	if got := f.Doc().XML(); got != d.XML() {
		t.Fatalf("after adopt = %s, want %s", got, d.XML())
	}
	st := f.Stats()
	if st.Seq != 4 || st.Horizon != 4 || st.LeaderHorizon != 4 {
		t.Fatalf("stats after adopt = %+v", st)
	}
	horizon := f.Horizon()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart with the leader unreachable: the local mirror alone must
	// serve everything at or below the advertised horizon.
	f2, err := OpenFollower(FollowerConfig{Dir: fdir, Fetch: deadLeader, Manual: true})
	if err != nil {
		t.Fatalf("restart from mirror: %v", err)
	}
	defer f2.Close()
	if f2.Horizon() < horizon {
		t.Fatalf("restart horizon %d below advertised %d", f2.Horizon(), horizon)
	}
	if got := f2.Doc().XML(); got != d.XML() {
		t.Fatalf("restart state = %s, want %s", got, d.XML())
	}
	// Polls fail (transport), but are transient: the follower keeps
	// serving and recovers when the leader returns.
	if err := f2.Poll(); err == nil {
		t.Fatal("poll against dead leader should fail")
	}
	leaderWrite(t, j, d, "f")
	f2.cfg.Fetch = fetchVia(j)
	if err := f2.Poll(); err != nil {
		t.Fatal(err)
	}
	if got := f2.Doc().XML(); got != d.XML() {
		t.Fatalf("after leader return = %s, want %s", got, d.XML())
	}
}

// TestFollowerReadYourWrites pins the horizon contract end to end: a
// client that saw the leader acknowledge sequence S waits for the
// follower horizon to reach S and must then see the write.
func TestFollowerReadYourWrites(t *testing.T) {
	ldir, fdir := t.TempDir(), t.TempDir()
	d := mustDoc(t, "<root/>")
	j, err := Create(Config{Dir: ldir, Scheme: testScheme}, d)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	leaderWrite(t, j, d, "seed")

	f, err := OpenFollower(FollowerConfig{Dir: fdir, Fetch: fetchVia(j), Interval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	for i := 0; i < 10; i++ {
		leaderWrite(t, j, d, fmt.Sprintf("w%d", i))
		seq := j.Stats().Seq // durably acknowledged: wait() returned
		if h, ok := f.WaitHorizon(seq, 5*time.Second); !ok {
			t.Fatalf("WaitHorizon(%d) stalled at %d", seq, h)
		}
		n, err := f.Doc().Count(fmt.Sprintf("/root/w%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if n != 1 {
			t.Fatalf("write w%d not visible at horizon %d", i, f.Horizon())
		}
	}
}

// TestFollowerWatch wires the two tentpole halves together: a watcher
// on the replica fires as replication applies the leader's batches.
func TestFollowerWatch(t *testing.T) {
	ldir, fdir := t.TempDir(), t.TempDir()
	d := mustDoc(t, "<root/>")
	j, err := Create(Config{Dir: ldir, Scheme: testScheme}, d)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	f, err := OpenFollower(FollowerConfig{Dir: fdir, Fetch: fetchVia(j), Manual: true})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ch, cancel, err := f.Doc().Watch("/root/n")
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	leaderWrite(t, j, d, "n")
	if err := f.Poll(); err != nil {
		t.Fatal(err)
	}
	select {
	case n := <-ch:
		if n.Added != 1 {
			t.Fatalf("notification = %+v, want Added=1", n)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no notification after replicated insert")
	}
}

// TestFollowerRejectsForkedHistory pins the divergence guard: a leader
// whose history regressed (data loss, different instance) must wedge
// the follower, not silently fork it.
func TestFollowerRejectsForkedHistory(t *testing.T) {
	ldir, fdir := t.TempDir(), t.TempDir()
	d := mustDoc(t, "<root/>")
	j, err := Create(Config{Dir: ldir, Scheme: testScheme}, d)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	leaderWrite(t, j, d, "a")
	leaderWrite(t, j, d, "b")
	f, err := OpenFollower(FollowerConfig{Dir: fdir, Fetch: fetchVia(j), Manual: true})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	// A "leader" that reports a horizon below the replica's position.
	f.cfg.Fetch = func(from uint64, max int) (*ShipChunk, error) {
		return &ShipChunk{Horizon: from - 1}, nil
	}
	if err := f.Poll(); err == nil {
		t.Fatal("regressed horizon accepted")
	}
	if err := f.Poll(); !errors.Is(err, errDiverged) {
		t.Fatalf("divergence is not sticky: %v", err)
	}
	// A gap in the shipped run is also a fork.
	f2dir := t.TempDir()
	f2, err := OpenFollower(FollowerConfig{Dir: f2dir, Fetch: fetchVia(j), Manual: true})
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	f2.cfg.Fetch = func(from uint64, max int) (*ShipChunk, error) {
		return &ShipChunk{Batches: []ShipBatch{{Seq: from + 2, Payload: []byte("x")}}, Horizon: from + 2}, nil
	}
	if err := f2.Poll(); err == nil {
		t.Fatal("gapped batch run accepted")
	}
}

// TestFollowerKillMatrix crashes the follower at every mirror I/O
// boundary via fault injection, then restarts it. A follower that had
// opened restarts with the leader unreachable, and the contract is: it
// serves some prefix of the leader's history no shorter than the
// horizon it advertised before dying. A follower killed inside its
// first open advertised nothing; it restarts against the live leader
// and must open and converge — whatever the kill left in the mirror
// must not wedge the name.
func TestFollowerKillMatrix(t *testing.T) {
	// followerScript drives one deterministic leader+follower run with
	// the given mirror wrapper, returning the advertised horizon at the
	// moment of "death" (first error) and how many batches the leader
	// issued. When the initial open itself dies it performs the
	// live-leader restart check on the spot, while the leader is still
	// up, and reports opened=false.
	type runResult struct {
		horizon uint64
		issued  uint64
		opened  bool
	}
	followerScript := func(t *testing.T, fdir, boundary string, wrap func(File) File) (res runResult) {
		ldir := t.TempDir()
		d := mustDoc(t, "<root/>")
		j, err := Create(Config{Dir: ldir, Scheme: testScheme}, d)
		if err != nil {
			t.Fatal(err)
		}
		defer j.Close()
		leaderWrite(t, j, d, "n1")
		leaderWrite(t, j, d, "n2")
		res.issued = 2
		f, err := OpenFollower(FollowerConfig{Dir: fdir, Fetch: fetchVia(j), Manual: true, WrapFile: wrap})
		if err != nil {
			f2, err := OpenFollower(FollowerConfig{Dir: fdir, Fetch: fetchVia(j), Manual: true})
			if err != nil {
				t.Fatalf("%s: restart after a kill inside the first open: %v", boundary, err)
			}
			defer f2.Close()
			leaderWrite(t, j, d, "n3")
			if err := f2.Poll(); err != nil {
				t.Fatalf("%s: poll after first-open restart: %v", boundary, err)
			}
			if got := f2.Doc().XML(); got != d.XML() {
				t.Fatalf("%s: first-open restart did not converge:\n got %s\nwant %s", boundary, got, d.XML())
			}
			return res
		}
		res.opened = true
		defer func() {
			res.horizon = f.Horizon()
			_ = f.Close()
		}()
		step := func(ckpt bool, name string) bool {
			if ckpt {
				if err := j.Checkpoint(d); err != nil {
					t.Fatal(err)
				}
			}
			leaderWrite(t, j, d, name)
			res.issued++
			return f.Poll() == nil
		}
		if !step(false, "n3") {
			return res
		}
		if !step(false, "n4") {
			return res
		}
		if !step(true, "n5") { // checkpoint → snapshot adoption on the mirror
			return res
		}
		if !step(false, "n6") {
			return res
		}
		return res
	}

	// Reference history: XML after each batch prefix.
	refXML := func(t *testing.T) []string {
		d := mustDoc(t, "<root/>")
		out := []string{d.XML()}
		root := rootID(t, d)
		for i := 1; i <= 6; i++ {
			if _, err := d.ApplyBatch(insertEdit(root, fmt.Sprintf("n%d", i))); err != nil {
				t.Fatal(err)
			}
			out = append(out, d.XML())
		}
		return out
	}(t)

	// Profile the clean run's mirror I/O.
	var files []*faultfs.File
	profile := followerScript(t, t.TempDir(), "profile", func(f File) File {
		ff := faultfs.Wrap(f.(faultfs.Backing))
		files = append(files, ff)
		return ff
	})
	if !profile.opened || profile.horizon != 6 {
		t.Fatalf("clean profile run: %+v", profile)
	}
	var writes, syncs []int
	for _, ff := range files {
		writes = append(writes, ff.Ops(faultfs.OpWrite))
		syncs = append(syncs, ff.Ops(faultfs.OpSync))
	}

	verify := func(t *testing.T, fdir string, res runResult, boundary string) {
		f, err := OpenFollower(FollowerConfig{Dir: fdir, Fetch: deadLeader, Manual: true})
		if err != nil {
			t.Fatalf("%s: restart after crash: %v (advertised horizon %d)", boundary, err, res.horizon)
		}
		defer f.Close()
		st := f.Stats()
		if st.Horizon < res.horizon {
			t.Fatalf("%s: restart horizon %d below advertised %d", boundary, st.Horizon, res.horizon)
		}
		if st.Seq > res.issued {
			t.Fatalf("%s: restart seq %d beyond issued %d", boundary, st.Seq, res.issued)
		}
		if got, want := f.Doc().XML(), refXML[st.Seq]; got != want {
			t.Fatalf("%s: restart state is not the %d-batch prefix:\n got %s\nwant %s", boundary, st.Seq, got, want)
		}
	}

	total, firstOpen := 0, 0
	crash := func(boundary string, fi int, fault faultfs.Fault) {
		fdir := t.TempDir()
		res := followerScript(t, fdir, boundary, wrapNth(fi, fault))
		if res.opened {
			verify(t, fdir, res, boundary)
			total++
		} else {
			firstOpen++
		}
	}
	for fi := range writes {
		for n := 1; n <= writes[fi]; n++ {
			for _, short := range []int{0, 3} {
				crash(fmt.Sprintf("file%d/write%d/short%d", fi, n, short), fi, faultfs.Fault{Op: faultfs.OpWrite, N: n, Short: short})
			}
		}
		for n := 1; n <= syncs[fi]; n++ {
			crash(fmt.Sprintf("file%d/sync%d", fi, n), fi, faultfs.Fault{Op: faultfs.OpSync, N: n})
		}
	}
	if total < 10 || firstOpen == 0 {
		t.Fatalf("follower kill matrix exercised only %d boundaries (%d inside the first open) — profiling is broken", total, firstOpen)
	}
	t.Logf("follower kill matrix: %d crash boundaries verified, %d more inside the first open", total, firstOpen)
}
