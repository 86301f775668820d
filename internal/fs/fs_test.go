package fs

import (
	"bytes"
	"errors"
	"testing"

	"spin/internal/dispatch"
	"spin/internal/vtime"
)

func newFS(t *testing.T) (*dispatch.Dispatcher, *FS, *vtime.Simulator) {
	t.Helper()
	var clock vtime.Clock
	cpu := vtime.NewCPU(&clock, vtime.AlphaModel())
	sim := vtime.NewSimulator(&clock)
	d := dispatch.New(dispatch.WithCPU(cpu), dispatch.WithSimulator(sim))
	s, err := New(d, cpu, "")
	if err != nil {
		t.Fatal(err)
	}
	return d, s, sim
}

func TestOpenWriteReadClose(t *testing.T) {
	_, s, _ := newFS(t)
	fd, err := s.Open("/etc/motd")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Write(fd, []byte("hello ")); err != nil {
		t.Fatal(err)
	}
	if err := s.Write(fd, []byte("world")); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get("/etc/motd")
	if !ok || string(got) != "hello world" {
		t.Fatalf("content = %q ok=%v", got, ok)
	}
	// Sequential reads through a fresh descriptor.
	fd2, _ := s.Open("/etc/motd")
	a, err := s.Read(fd2, 5)
	if err != nil || string(a) != "hello" {
		t.Fatalf("read = %q err=%v", a, err)
	}
	b, _ := s.Read(fd2, 100)
	if string(b) != " world" {
		t.Fatalf("read = %q", b)
	}
	c, _ := s.Read(fd2, 10)
	if len(c) != 0 {
		t.Fatalf("read past EOF = %q", c)
	}
	if err := s.Close(fd); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(fd2); err != nil {
		t.Fatal(err)
	}
}

// A Read result is a view of the file clipped to its length: appending to
// it copies instead of overwriting the bytes after it.
func TestReadResultAppendLeavesFile(t *testing.T) {
	_, s, _ := newFS(t)
	s.Put("/a", []byte("0123456789"))
	fd, err := s.Open("/a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Read(fd, 3)
	if err != nil || string(b) != "012" {
		t.Fatalf("read = %q err=%v", b, err)
	}
	_ = append(b, 'X', 'Y')
	if got, _ := s.Get("/a"); string(got) != "0123456789" {
		t.Fatalf("content after appending to a read = %q", got)
	}
	if rest, _ := s.Read(fd, 100); string(rest) != "3456789" {
		t.Fatalf("next read = %q", rest)
	}
}

func TestBadFD(t *testing.T) {
	_, s, _ := newFS(t)
	if err := s.Write(999, []byte("x")); !errors.Is(err, ErrBadFD) {
		t.Fatalf("err = %v", err)
	}
	if _, err := s.Read(999, 1); !errors.Is(err, ErrBadFD) {
		t.Fatalf("err = %v", err)
	}
}

func TestRemove(t *testing.T) {
	_, s, _ := newFS(t)
	s.Put("/tmp/x", []byte("data"))
	ok, err := s.Remove("/tmp/x")
	if err != nil || !ok {
		t.Fatalf("remove = %v, %v", ok, err)
	}
	if s.Exists("/tmp/x") {
		t.Fatal("file survived removal")
	}
	ok, _ = s.Remove("/tmp/x")
	if ok {
		t.Fatal("double remove reported success")
	}
	// An open file cannot be removed.
	fd, _ := s.Open("/tmp/y")
	if ok, _ := s.Remove("/tmp/y"); ok {
		t.Fatal("open file removed")
	}
	_ = s.Close(fd)
	if ok, _ := s.Remove("/tmp/y"); !ok {
		t.Fatal("closed file not removable")
	}
}

func TestNormalize(t *testing.T) {
	cases := map[string]string{
		"/a/b":    "/a/b",
		"a/b":     "/a/b",
		"/a//b/":  "/a/b",
		"/./a/.":  "/a",
		"":        "/",
		"/":       "/",
		"a/./b//": "/a/b",
		// Around the already-normal fast path: what looks almost normal.
		"/a/":       "/a",
		"/a/.":      "/a",
		"/.":        "/",
		"//":        "/",
		"/a/./b":    "/a/b",
		"/.a/b./..": "/.a/b./..",
		"/a.b/c":    "/a.b/c",
	}
	for in, want := range cases {
		if got := normalize(in); got != want {
			t.Errorf("Normalize(%q) = %q, want %q", in, got, want)
		}
		if !isNormal(want) || isNormal(in) != (in == want) {
			t.Errorf("isNormal(%q) = %v, isNormal(%q) = %v", in, isNormal(in), want, isNormal(want))
		}
	}
}

// Looking up a path that is already normal — every request the web server
// resolves — does not split and rejoin it.
func TestNormalizeNormalPathZeroAlloc(t *testing.T) {
	path := "/www/docs/d07.html"
	if allocs := testing.AllocsPerRun(1000, func() {
		if normalize(path) != path {
			t.Fatal("a normal path was rewritten")
		}
	}); allocs != 0 {
		t.Fatalf("Normalize of a normal path allocates %.1f times", allocs)
	}
}

func TestList(t *testing.T) {
	_, s, _ := newFS(t)
	s.Put("/fonts/a", nil)
	s.Put("/fonts/b", nil)
	s.Put("/etc/x", nil)
	got := s.List("/fonts")
	if len(got) != 2 || got[0] != "/fonts/a" || got[1] != "/fonts/b" {
		t.Fatalf("list = %v", got)
	}
	if len(s.List("/")) != 3 {
		t.Fatal("root list wrong")
	}
}

func TestDosName(t *testing.T) {
	cases := map[string]string{
		"C:\\FONTS\\FIXED.FON": "/fonts/fixed.fon",
		"D:\\X":                "/x",
		"\\TMP\\A.TXT":         "/tmp/a.txt",
		"README.TXT":           "/readme.txt",
	}
	for in, want := range cases {
		if got := dosName(in); got != want {
			t.Errorf("DosName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestDosFilterInterposesTransparently(t *testing.T) {
	// §2.3: the MS-DOS name space over a UNIX file system. The raiser
	// passes a DOS path; the intrinsic handler (and any other handler)
	// sees the converted UNIX path; the raiser's string is untouched.
	_, s, _ := newFS(t)
	if _, err := InstallDosFilter(s); err != nil {
		t.Fatal(err)
	}
	dosPath := "C:\\AUTOEXEC.BAT"
	fd, err := s.Open(dosPath)
	if err != nil {
		t.Fatal(err)
	}
	_ = s.Write(fd, []byte("@echo off"))
	_ = s.Close(fd)
	if !s.Exists("/autoexec.bat") {
		t.Fatalf("file not created under UNIX name; have %v", s.List("/"))
	}
	if dosPath != "C:\\AUTOEXEC.BAT" {
		t.Fatal("raiser's argument mutated")
	}
	// UNIX names pass through untouched.
	fd2, _ := s.Open("/etc/passwd")
	_ = s.Close(fd2)
	if !s.Exists("/etc/passwd") {
		t.Fatal("UNIX name mangled")
	}
	// Remove through the DOS name.
	ok, err := s.Remove("C:\\autoexec.bat")
	if err != nil || !ok {
		t.Fatalf("remove via DOS name = %v, %v", ok, err)
	}
}

func TestDosFilterUninstall(t *testing.T) {
	_, s, _ := newFS(t)
	bindings, err := InstallDosFilter(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(bindings) != 2 {
		t.Fatalf("bindings = %d", len(bindings))
	}
	for _, b := range bindings {
		if err := b.Event().Uninstall(b); err != nil {
			t.Fatal(err)
		}
	}
	fd, _ := s.Open("C:\\RAW")
	_ = s.Close(fd)
	if !s.Exists("/C:\\RAW") {
		t.Fatalf("filter still active after uninstall; have %v", s.List("/"))
	}
}

func TestLazyReplication(t *testing.T) {
	// §2.6: the write happens synchronously; replication is asynchronous.
	d, s, sim := newFS(t)
	replica, err := New(d, nil, "replica:")
	if err != nil {
		t.Fatal(err)
	}
	r, err := InstallReplicator(s, replica)
	if err != nil {
		t.Fatal(err)
	}
	fd, _ := s.Open("/data/log")
	if err := s.Write(fd, []byte("entry-1")); err != nil {
		t.Fatal(err)
	}
	// The synchronous write is visible immediately...
	if got, _ := s.Get("/data/log"); string(got) != "entry-1" {
		t.Fatalf("primary = %q", got)
	}
	// ...the replica only after the detached thread runs.
	if replica.Exists("/data/log") {
		t.Fatal("replication was synchronous")
	}
	sim.Run(0)
	if got, _ := replica.Get("/data/log"); string(got) != "entry-1" {
		t.Fatalf("replica = %q", got)
	}
	if r.Applied != 1 {
		t.Fatalf("applied = %d", r.Applied)
	}
	// Multiple writes accumulate in order.
	_ = s.Write(fd, []byte(" entry-2"))
	sim.Run(0)
	want := "entry-1 entry-2"
	if got, _ := replica.Get("/data/log"); string(got) != want {
		t.Fatalf("replica = %q, want %q", got, want)
	}
	if err := r.Uninstall(); err != nil {
		t.Fatal(err)
	}
	_ = s.Write(fd, []byte(" entry-3"))
	sim.Run(0)
	if got, _ := replica.Get("/data/log"); string(got) != want {
		t.Fatal("replication continued after uninstall")
	}
}

func TestReplicationAndDosFilterCompose(t *testing.T) {
	d, s, sim := newFS(t)
	replica, _ := New(d, nil, "replica:")
	if _, err := InstallDosFilter(s); err != nil {
		t.Fatal(err)
	}
	if _, err := InstallReplicator(s, replica); err != nil {
		t.Fatal(err)
	}
	fd, _ := s.Open("C:\\LOG.TXT")
	_ = s.Write(fd, []byte("x"))
	sim.Run(0)
	if got, _ := replica.Get("/log.txt"); !bytes.Equal(got, []byte("x")) {
		t.Fatalf("replica under DOS-filtered name = %q", got)
	}
}

func TestOpsCounter(t *testing.T) {
	_, s, _ := newFS(t)
	fd, _ := s.Open("/a")
	_ = s.Write(fd, []byte("1"))
	_, _ = s.Read(fd, 1)
	_ = s.Close(fd)
	_, _ = s.Remove("/a")
	if s.Ops != 5 {
		t.Fatalf("ops = %d", s.Ops)
	}
}
