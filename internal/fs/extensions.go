package fs

import (
	"strings"

	"spin/internal/dispatch"
	"spin/internal/rtti"
)

// This file implements the two file-system extensions the paper uses as
// running examples of filters and asynchronous handlers.

// DosModule is the MS-DOS name-space extension's module.
var DosModule = rtti.NewModule("DosFs")

// dosName converts an MS-DOS path ("C:\FONTS\FIXED.FON") to the UNIX name
// space ("/fonts/fixed.fon"): drive letter stripped, backslashes to
// slashes, case folded.
func dosName(name string) string {
	if len(name) >= 2 && name[1] == ':' {
		name = name[2:]
	}
	name = strings.ReplaceAll(name, "\\", "/")
	return normalize(strings.ToLower(name))
}

// InstallDosFilter provides the MS-DOS file name space over the UNIX file
// system "by transparently converting file names from one standard to the
// other" (§2.3): a filter handler is installed First on the path-taking
// events, rewriting the name argument for the handlers ordered after it —
// including the intrinsic implementation.
//
// It returns the installed bindings so the extension can be unloaded.
func InstallDosFilter(s *FS) ([]*dispatch.Binding, error) {
	var installed []*dispatch.Binding
	filter := func(ev *dispatch.Event, name string) error {
		sig := ev.Signature()
		fsig := rtti.Signature{Args: sig.Args, ByRef: make([]bool, len(sig.Args)), Result: sig.Result}
		fsig.ByRef[0] = true // the path parameter is taken by reference
		b, err := ev.Install(dispatch.Handler{
			Proc: &rtti.Proc{Name: name, Module: DosModule, Sig: fsig},
			Fn: func(clo any, args []any) any {
				if p, ok := args[0].(string); ok && looksDos(p) {
					args[0] = dosName(p)
				}
				return nil
			},
		}, dispatch.AsFilter(), dispatch.First())
		if err != nil {
			return err
		}
		installed = append(installed, b)
		return nil
	}
	if err := filter(s.OpenEvent, "DosFs.OpenFilter"); err != nil {
		return nil, err
	}
	if err := filter(s.RemoveEvent, "DosFs.RemoveFilter"); err != nil {
		return nil, err
	}
	return installed, nil
}

// looksDos reports whether a path uses MS-DOS conventions.
func looksDos(p string) bool {
	return strings.Contains(p, "\\") || (len(p) >= 2 && p[1] == ':')
}

// ReplicaModule is the lazy-replication extension's module.
var ReplicaModule = rtti.NewModule("ReplFs")

// Replicator mirrors writes into a replica file system asynchronously.
type Replicator struct {
	// Replica is the backing store for replicated writes.
	Replica *FS
	// Applied counts replicated write operations.
	Applied int64
	binding *dispatch.Binding
	primary *FS
	apply   *dispatch.Event
}

// InstallReplicator extends the file system with lazy replication (§2.6):
// "the original code should perform the write synchronously, but the
// replication can be done asynchronously."
//
// The extension installs a synchronous handler on Fs.Write that resolves
// the descriptor to a path (cheap metadata work that must happen before
// the descriptor can be closed) and then raises the extension's own
// asynchronous ReplFs.Apply event carrying path and data — the bulk copy
// happens on a detached thread of control while the original writer
// proceeds.
func InstallReplicator(primary, replica *FS) (*Replicator, error) {
	r := &Replicator{Replica: replica, primary: primary}
	d := primary.WriteEvent.Dispatcher()

	applySig := rtti.Sig(nil, rtti.Text, FileDataType)
	apply, err := d.DefineEvent("ReplFs.Apply", applySig,
		dispatch.AsAsync(),
		dispatch.WithIntrinsic(dispatch.Handler{
			Proc: &rtti.Proc{Name: "ReplFs.Apply", Module: ReplicaModule, Sig: applySig},
			Fn: func(clo any, args []any) any {
				path := args[0].(string)
				data := args[1].(*Data)
				old, _ := replica.Get(path)
				replica.Put(path, append(old, data.Bytes...))
				r.Applied++
				return nil
			},
		}))
	if err != nil {
		return nil, err
	}
	r.apply = apply

	sig := primary.WriteEvent.Signature()
	b, err := primary.WriteEvent.Install(dispatch.Handler{
		Proc: &rtti.Proc{Name: "ReplFs.Write", Module: ReplicaModule, Sig: sig},
		Fn: func(clo any, args []any) any {
			fd := args[0].(uint64)
			data := args[1].(*Data)
			if of, ok := primary.fds[fd]; ok {
				_, _ = apply.Raise(of.path, data)
			}
			return nil
		},
	}, dispatch.Last())
	if err != nil {
		return nil, err
	}
	r.binding = b
	return r, nil
}

// Uninstall removes the replication handler.
func (r *Replicator) Uninstall() error {
	return r.primary.WriteEvent.Uninstall(r.binding)
}
