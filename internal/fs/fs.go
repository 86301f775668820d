// Package fs is the file-system substrate: an in-memory UNIX-like file
// store whose operations are announced as events, so extensions can
// interpose on them the way the paper's examples do — the MS-DOS name
// space provided "over a UNIX file system by transparently converting file
// names from one standard to the other" via a filter handler (§2.3), and
// lazy replication where "the original code should perform the write
// synchronously, but the replication can be done asynchronously" (§2.6).
//
// SPIN carried six different file systems as extensions; this package is
// the substrate they would stack on.
package fs

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"spin/internal/dispatch"
	"spin/internal/rtti"
	"spin/internal/vtime"
)

// Module is the file system's module descriptor.
var Module = rtti.NewModule("Fs", "Fs")

// Errors.
var (
	ErrNotFound = errors.New("fs: no such file")
	ErrBadFD    = errors.New("fs: bad file descriptor")
	ErrIsOpen   = errors.New("fs: file is open")
)

// FileDataType is the rtti type of data buffers passed through events.
var FileDataType = rtti.NewRef("Fs.Data", nil)

// Data wraps a byte buffer for event passing.
type Data struct{ Bytes []byte }

// RTTIType implements rtti.Described.
func (d *Data) RTTIType() rtti.Type { return FileDataType }

// A file's written bytes are never rewritten in place: Write only appends
// and Put installs a fresh copy. Get and Read therefore hand out views of
// data, clipped to their length so a caller's append cannot reach the
// bytes after them.
type file struct {
	data []byte
	open int
}

type openFile struct {
	path string
	f    *file
	pos  int
}

// FS is one mounted file system instance. The exported events are:
//
//	Fs.Open(path: TEXT): WORD            - returns a descriptor
//	Fs.Write(fd: WORD, data: Fs.Data)    - append-style write
//	Fs.Read(fd: WORD, n: WORD): Fs.Data  - sequential read
//	Fs.Close(fd: WORD)
//	Fs.Remove(path: TEXT): BOOLEAN
//
// The intrinsic handler of each event is the native implementation;
// extensions interpose with filters and additional handlers.
type FS struct {
	cpu *vtime.CPU

	OpenEvent   *dispatch.Event
	WriteEvent  *dispatch.Event
	ReadEvent   *dispatch.Event
	CloseEvent  *dispatch.Event
	RemoveEvent *dispatch.Event

	files  map[string]*file
	fds    map[uint64]*openFile
	nextFD uint64

	// Ops counts intrinsic operations performed.
	Ops int64
}

// New mounts an empty file system and defines its events on d. prefix
// namespaces the event names when several file systems coexist.
func New(d *dispatch.Dispatcher, cpu *vtime.CPU, prefix string) (*FS, error) {
	s := &FS{cpu: cpu, files: make(map[string]*file), fds: make(map[uint64]*openFile), nextFD: 3}

	def := func(name string, sig rtti.Signature, fn dispatch.HandlerFn) (*dispatch.Event, error) {
		return d.DefineEvent(prefix+name, sig, dispatch.WithIntrinsic(dispatch.Handler{
			Proc: &rtti.Proc{Name: name, Module: Module, Sig: sig},
			Fn:   fn,
		}))
	}
	var err error
	if s.OpenEvent, err = def("Fs.Open", rtti.Sig(rtti.Word, rtti.Text), s.intrinsicOpen); err != nil {
		return nil, err
	}
	if s.WriteEvent, err = def("Fs.Write", rtti.Sig(nil, rtti.Word, FileDataType), s.intrinsicWrite); err != nil {
		return nil, err
	}
	if s.ReadEvent, err = def("Fs.Read", rtti.Sig(FileDataType, rtti.Word, rtti.Word), s.intrinsicRead); err != nil {
		return nil, err
	}
	if s.CloseEvent, err = def("Fs.Close", rtti.Sig(nil, rtti.Word), s.intrinsicClose); err != nil {
		return nil, err
	}
	if s.RemoveEvent, err = def("Fs.Remove", rtti.Sig(rtti.Bool, rtti.Text), s.intrinsicRemove); err != nil {
		return nil, err
	}
	return s, nil
}

// normalize canonicalizes a UNIX path: a leading slash, no empty or "."
// element, no trailing slash. A path already in that form is returned as
// it is, without allocating.
func normalize(path string) string {
	if isNormal(path) {
		return path
	}
	if !strings.HasPrefix(path, "/") {
		path = "/" + path
	}
	parts := strings.Split(path, "/")
	out := parts[:0]
	for _, p := range parts {
		if p == "" || p == "." {
			continue
		}
		out = append(out, p)
	}
	return "/" + strings.Join(out, "/")
}

func isNormal(path string) bool {
	if path == "/" {
		return true
	}
	if path == "" || path[0] != '/' {
		return false
	}
	for start := 1; ; {
		end := strings.IndexByte(path[start:], '/')
		if end < 0 {
			end = len(path) - start
		}
		if elem := path[start : start+end]; elem == "" || elem == "." {
			return false
		}
		if start += end + 1; start > len(path) {
			return true
		}
	}
}

// --- Intrinsic handlers (the native implementation) ---

func (s *FS) intrinsicOpen(clo any, args []any) any {
	s.cpu.ChargeTo(vtime.AccountKernel, vtime.FSOp)
	s.Ops++
	path := normalize(args[0].(string))
	f, ok := s.files[path]
	if !ok {
		f = &file{}
		s.files[path] = f
	}
	fd := s.nextFD
	s.nextFD++
	f.open++
	s.fds[fd] = &openFile{path: path, f: f}
	return fd
}

func (s *FS) intrinsicWrite(clo any, args []any) any {
	s.cpu.ChargeTo(vtime.AccountKernel, vtime.FSOp)
	s.Ops++
	of, ok := s.fds[args[0].(uint64)]
	if !ok {
		return nil
	}
	of.f.data = append(of.f.data, args[1].(*Data).Bytes...)
	return nil
}

func (s *FS) intrinsicRead(clo any, args []any) any {
	s.cpu.ChargeTo(vtime.AccountKernel, vtime.FSOp)
	s.Ops++
	of, ok := s.fds[args[0].(uint64)]
	if !ok {
		return (*Data)(nil)
	}
	n := int(args[1].(uint64))
	if rem := len(of.f.data) - of.pos; n > rem {
		n = rem
	}
	d := &Data{Bytes: of.f.data[of.pos : of.pos+n : of.pos+n]}
	of.pos += n
	return d
}

func (s *FS) intrinsicClose(clo any, args []any) any {
	s.cpu.ChargeTo(vtime.AccountKernel, vtime.FSOp)
	s.Ops++
	fd := args[0].(uint64)
	if of, ok := s.fds[fd]; ok {
		of.f.open--
		delete(s.fds, fd)
	}
	return nil
}

func (s *FS) intrinsicRemove(clo any, args []any) any {
	s.cpu.ChargeTo(vtime.AccountKernel, vtime.FSOp)
	s.Ops++
	path := normalize(args[0].(string))
	f, ok := s.files[path]
	if !ok || f.open > 0 {
		return false
	}
	delete(s.files, path)
	return true
}

// --- Public API: raises the events, so interposed extensions run ---

// Open opens (creating if necessary) the file at path and returns a
// descriptor.
func (s *FS) Open(path string) (uint64, error) {
	res, err := s.OpenEvent.Raise(path)
	if err != nil {
		return 0, err
	}
	return res.(uint64), nil
}

// Write appends data to the open file.
func (s *FS) Write(fd uint64, data []byte) error {
	if _, ok := s.fds[fd]; !ok {
		return fmt.Errorf("%w: %d", ErrBadFD, fd)
	}
	_, err := s.WriteEvent.Raise(fd, &Data{Bytes: data})
	return err
}

// Read reads up to n bytes sequentially from the open file.
func (s *FS) Read(fd uint64, n int) ([]byte, error) {
	if _, ok := s.fds[fd]; !ok {
		return nil, fmt.Errorf("%w: %d", ErrBadFD, fd)
	}
	res, err := s.ReadEvent.Raise(fd, uint64(n))
	if err != nil {
		return nil, err
	}
	d, _ := res.(*Data)
	if d == nil {
		return nil, nil
	}
	return d.Bytes, nil
}

// Close releases a descriptor.
func (s *FS) Close(fd uint64) error {
	_, err := s.CloseEvent.Raise(fd)
	return err
}

// Remove deletes the file at path; it reports false for missing or open
// files.
func (s *FS) Remove(path string) (bool, error) {
	res, err := s.RemoveEvent.Raise(path)
	if err != nil {
		return false, err
	}
	b, _ := res.(bool)
	return b, nil
}

// --- Direct (non-evented) accessors for substrates and tests ---

// Put stores content at path directly, without raising events.
func (s *FS) Put(path string, content []byte) {
	path = normalize(path)
	s.files[path] = &file{data: append([]byte(nil), content...)}
}

// Get returns the file's content as a read-only view, not a copy: a
// later Write or Put leaves it unchanged, and appending to it copies.
func (s *FS) Get(path string) ([]byte, bool) {
	f, ok := s.files[normalize(path)]
	if !ok {
		return nil, false
	}
	n := len(f.data)
	return f.data[:n:n], true
}

// Exists reports whether path exists.
func (s *FS) Exists(path string) bool {
	_, ok := s.files[normalize(path)]
	return ok
}

// List returns the sorted paths under the given prefix.
func (s *FS) List(prefix string) []string {
	prefix = normalize(prefix)
	var out []string
	for p := range s.files {
		if strings.HasPrefix(p, prefix) {
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out
}
