package cpsmon_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestMonitorPassivity enforces the bolt-on isolation argument at the
// package-dependency level: the monitor side of the repository (the
// specification language, the engine, and the rule sets) must never
// import the system under test (the feature, the plant, the bench, the
// scenarios or the injectors). Its entire view of the system is the
// frame log and the signal database — exactly what a passive listener
// on the physical bus records.
func TestMonitorPassivity(t *testing.T) {
	monitorPkgs := []string{"internal/speclang", "internal/core", "internal/rules", "internal/trace", "internal/can", "internal/sigdb"}
	forbidden := []string{
		"cpsmon/internal/fsracc",
		"cpsmon/internal/vehicle",
		"cpsmon/internal/hil",
		"cpsmon/internal/scenario",
		"cpsmon/internal/inject",
		"cpsmon/internal/campaign",
	}
	for _, pkg := range monitorPkgs {
		entries, err := os.ReadDir(pkg)
		if err != nil {
			t.Fatalf("read %s: %v", pkg, err)
		}
		for _, e := range entries {
			name := e.Name()
			if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			path := filepath.Join(pkg, name)
			fset := token.NewFileSet()
			f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
			if err != nil {
				t.Fatalf("parse %s: %v", path, err)
			}
			for _, imp := range f.Imports {
				ipath, err := strconv.Unquote(imp.Path.Value)
				if err != nil {
					t.Fatalf("%s: bad import literal %s", path, imp.Path.Value)
				}
				for _, bad := range forbidden {
					if ipath == bad {
						t.Errorf("%s imports %s: the monitor must stay passive (bolt-on isolation)", path, ipath)
					}
				}
			}
		}
	}
}

// cpsmonImports lists every cpsmon-internal import path appearing in
// the non-test sources of pkg.
func cpsmonImports(t *testing.T, pkg string) map[string][]string {
	t.Helper()
	found := make(map[string][]string) // import path -> importing files
	entries, err := os.ReadDir(pkg)
	if err != nil {
		t.Fatalf("read %s: %v", pkg, err)
	}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		path := filepath.Join(pkg, name)
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatalf("parse %s: %v", path, err)
		}
		for _, imp := range f.Imports {
			ipath, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				t.Fatalf("%s: bad import literal %s", path, imp.Path.Value)
			}
			if strings.HasPrefix(ipath, "cpsmon/") {
				found[ipath] = append(found[ipath], path)
			}
		}
	}
	return found
}

// TestWireProtocolStaysDependencyLight pins the wire codec's dependency
// surface: it may know about CAN frames (the payload it carries) and the
// metrics registry it reports into, and nothing else of the repository.
// A vehicle-side encoder must be able to link the codec without
// dragging in the monitor engine.
func TestWireProtocolStaysDependencyLight(t *testing.T) {
	allowed := map[string]bool{
		"cpsmon/internal/can": true,
		"cpsmon/internal/obs": true,
	}
	for ipath, files := range cpsmonImports(t, "internal/wire") {
		if !allowed[ipath] {
			t.Errorf("%v import %s: the wire codec may depend only on internal/can and internal/obs", files, ipath)
		}
	}
}

// TestObservabilityStaysStandardLibraryOnly keeps the metrics registry
// a leaf package: every layer from the wire codec up to the fleet
// server reports into it, so it may import nothing of cpsmon — exactly
// like faultnet and sigdb, that is what keeps it linkable everywhere
// without cycles.
func TestObservabilityStaysStandardLibraryOnly(t *testing.T) {
	for ipath, files := range cpsmonImports(t, "internal/obs") {
		t.Errorf("%v import %s: obs must stay standard-library-only", files, ipath)
	}
}

// TestMonitorEngineStaysOffTheNetwork keeps instrumentation from
// pulling transport concerns into the engine: internal/core updates
// obs counters, but serving them (/metrics, pprof) is the daemon's
// job. An engine that can't open sockets is an engine that stays
// embeddable in the HIL bench and a vehicle-side process alike.
func TestMonitorEngineStaysOffTheNetwork(t *testing.T) {
	forbidden := map[string]bool{"net": true, "net/http": true}
	entries, err := os.ReadDir("internal/core")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		path := filepath.Join("internal/core", name)
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatalf("parse %s: %v", path, err)
		}
		for _, imp := range f.Imports {
			ipath, _ := strconv.Unquote(imp.Path.Value)
			if forbidden[ipath] {
				t.Errorf("%s imports %s: the monitor engine must stay off the network", path, ipath)
			}
		}
	}
}

// TestFleetDependencySurface bounds the fleet server's reach: transport
// (wire), the monitor engine and its inputs. Like the monitor itself it
// must never see the system under test.
func TestFleetDependencySurface(t *testing.T) {
	allowed := map[string]bool{
		"cpsmon/internal/wire":     true,
		"cpsmon/internal/core":     true,
		"cpsmon/internal/can":      true,
		"cpsmon/internal/sigdb":    true,
		"cpsmon/internal/speclang": true,
		"cpsmon/internal/obs":      true,
		"cpsmon/internal/flight":   true,
	}
	for ipath, files := range cpsmonImports(t, "internal/fleet") {
		if !allowed[ipath] {
			t.Errorf("%v import %s: fleet may depend only on wire, core, can, sigdb, speclang, obs, flight", files, ipath)
		}
	}
}

// TestFlightStaysStandardLibraryOnly keeps the flight recorder a leaf
// package like obs: the fleet server, the daemon and client-side code
// all feed spans into it, so it may import nothing of cpsmon — that is
// what lets it link everywhere (including obs's admin tests) without
// cycles.
func TestFlightStaysStandardLibraryOnly(t *testing.T) {
	for ipath, files := range cpsmonImports(t, "internal/flight") {
		t.Errorf("%v import %s: flight must stay standard-library-only", files, ipath)
	}
}

// TestArchiveStaysALeafOverWire pins the archive store's dependency
// surface: the wire codec whose records it persists, the CAN frames
// those records carry, and the metrics registry — the same three-leaf
// diet as the wire codec itself. In particular it must never import
// the fleet server (the archive is the hook's implementation, not a
// client of it) nor open sockets: an archive directory must be
// readable by offline tooling that links nothing of the transport.
func TestArchiveStaysALeafOverWire(t *testing.T) {
	allowed := map[string]bool{
		"cpsmon/internal/wire": true,
		"cpsmon/internal/can":  true,
		"cpsmon/internal/obs":  true,
	}
	for ipath, files := range cpsmonImports(t, "internal/archive") {
		if !allowed[ipath] {
			t.Errorf("%v import %s: archive may depend only on wire, can, obs", files, ipath)
		}
	}
	forbidden := map[string]bool{"net": true, "net/http": true}
	entries, err := os.ReadDir("internal/archive")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		path := filepath.Join("internal/archive", name)
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatalf("parse %s: %v", path, err)
		}
		for _, imp := range f.Imports {
			ipath, _ := strconv.Unquote(imp.Path.Value)
			if forbidden[ipath] {
				t.Errorf("%s imports %s: the archive must stay off the network", path, ipath)
			}
		}
	}
}

// TestDurableDependencySurface bounds the crash-safety layer: the
// session ledger and recovery engine sit between the fleet server and
// the archive, so they may see those two, the wire records they
// persist, and the metrics registry — never the monitor engine (the
// rebuild replays frames through fleet's Restorer, which owns the
// monitor) and never the system under test.
func TestDurableDependencySurface(t *testing.T) {
	allowed := map[string]bool{
		"cpsmon/internal/fleet":   true,
		"cpsmon/internal/archive": true,
		"cpsmon/internal/wire":    true,
		"cpsmon/internal/obs":     true,
	}
	for ipath, files := range cpsmonImports(t, "internal/durable") {
		if !allowed[ipath] {
			t.Errorf("%v import %s: durable may depend only on fleet, archive, wire, obs", files, ipath)
		}
	}
}

// TestSpecRegistryDependencySurface keeps the spec registry a leaf
// over the metrics registry: it stores rule text and drives rollouts
// through the Fleet interface, so it may import only internal/obs —
// the daemon adapts the fleet server to it, never the other way
// around. That is what lets offline tooling (monitorctl) read a
// registry directory without linking the fleet server.
func TestSpecRegistryDependencySurface(t *testing.T) {
	allowed := map[string]bool{
		"cpsmon/internal/obs": true,
	}
	for ipath, files := range cpsmonImports(t, "internal/specreg") {
		if !allowed[ipath] {
			t.Errorf("%v import %s: specreg may depend only on obs", files, ipath)
		}
	}
}

// TestRecheckDependencySurface bounds the recheck engine: it reads
// archives and replays them through the monitor engine, so it may see
// the archive store, the engine and its inputs, plus the metrics
// registry its throughput counters report into — never the fleet
// server or the system under test. Rechecking history must stay an
// offline operation, so like the engine and the archive it is also
// pinned off the network.
func TestRecheckDependencySurface(t *testing.T) {
	allowed := map[string]bool{
		"cpsmon/internal/archive":  true,
		"cpsmon/internal/core":     true,
		"cpsmon/internal/sigdb":    true,
		"cpsmon/internal/speclang": true,
		"cpsmon/internal/wire":     true,
		"cpsmon/internal/can":      true,
		"cpsmon/internal/obs":      true,
	}
	for ipath, files := range cpsmonImports(t, "internal/recheck") {
		if !allowed[ipath] {
			t.Errorf("%v import %s: recheck may depend only on archive, core, sigdb, speclang, wire, can, obs", files, ipath)
		}
	}
	forbidden := map[string]bool{"net": true, "net/http": true}
	entries, err := os.ReadDir("internal/recheck")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		path := filepath.Join("internal/recheck", name)
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatalf("parse %s: %v", path, err)
		}
		for _, imp := range f.Imports {
			ipath, _ := strconv.Unquote(imp.Path.Value)
			if forbidden[ipath] {
				t.Errorf("%s imports %s: recheck must stay off the network", path, ipath)
			}
		}
	}
}

// TestSpeclangStaysStandardLibraryOnly keeps the specification language
// a leaf package: its stream checker is the one evaluator behind the
// online monitor, the offline checks and the recheck engine, on every
// hot path — it may import nothing of cpsmon.
func TestSpeclangStaysStandardLibraryOnly(t *testing.T) {
	for ipath, files := range cpsmonImports(t, "internal/speclang") {
		t.Errorf("%v import %s: speclang must stay standard-library-only", files, ipath)
	}
}

// TestFaultnetStaysStandardLibraryOnly keeps the fault-injecting conn
// wrapper a leaf: it wraps any net.Conn for any test in the repository,
// so it may import nothing of cpsmon — standard library only. That is
// what lets wire, fleet, or a future transport use it without cycles.
func TestFaultnetStaysStandardLibraryOnly(t *testing.T) {
	for ipath, files := range cpsmonImports(t, "internal/faultnet") {
		t.Errorf("%v import %s: faultnet must stay standard-library-only", files, ipath)
	}
}

// TestSignalDatabaseStaysStandardLibraryOnly keeps the signal database
// a leaf package: it is the shared vocabulary between the system under
// test, the monitor, and the fleet ingest path, so it may import
// nothing of cpsmon. That is also what keeps its compiled decode plans
// embeddable in a vehicle-side encoder.
func TestSignalDatabaseStaysStandardLibraryOnly(t *testing.T) {
	for ipath, files := range cpsmonImports(t, "internal/sigdb") {
		t.Errorf("%v import %s: sigdb must stay standard-library-only", files, ipath)
	}
}

// TestSignalDatabaseExportedTypeSurface pins sigdb's exported types:
// the database itself, its schema vocabulary, and the compiled
// DecodePlan — the one hot-path decode surface. Growing this set is a
// deliberate API decision, not a side effect; update the list here when
// it is.
func TestSignalDatabaseExportedTypeSurface(t *testing.T) {
	want := map[string]bool{
		"DB":         true,
		"DecodePlan": true,
		"FrameDef":   true,
		"Kind":       true,
		"Signal":     true,
	}
	got := make(map[string]bool)
	entries, err := os.ReadDir("internal/sigdb")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		path := filepath.Join("internal/sigdb", name)
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatalf("parse %s: %v", path, err)
		}
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts := spec.(*ast.TypeSpec)
				if ts.Name.IsExported() {
					got[ts.Name.Name] = true
				}
			}
		}
	}
	for name := range got {
		if !want[name] {
			t.Errorf("sigdb exports unexpected type %s: extend the pinned surface deliberately", name)
		}
	}
	for name := range want {
		if !got[name] {
			t.Errorf("sigdb no longer exports type %s", name)
		}
	}
}

// TestSystemUnderTestDoesNotImportMonitor checks the other direction of
// the isolation boundary: the simulated system (plant, feature, bench)
// has no knowledge of the monitor, mirroring a deployment where the
// testing box is removed without invalidating the system.
func TestSystemUnderTestDoesNotImportMonitor(t *testing.T) {
	systemPkgs := []string{"internal/fsracc", "internal/vehicle", "internal/hil", "internal/scenario"}
	forbidden := []string{
		"cpsmon/internal/core",
		"cpsmon/internal/speclang",
		"cpsmon/internal/rules",
	}
	for _, pkg := range systemPkgs {
		entries, err := os.ReadDir(pkg)
		if err != nil {
			t.Fatalf("read %s: %v", pkg, err)
		}
		for _, e := range entries {
			name := e.Name()
			if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			path := filepath.Join(pkg, name)
			fset := token.NewFileSet()
			f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
			if err != nil {
				t.Fatalf("parse %s: %v", path, err)
			}
			for _, imp := range f.Imports {
				ipath, _ := strconv.Unquote(imp.Path.Value)
				for _, bad := range forbidden {
					if ipath == bad {
						t.Errorf("%s imports %s: the system under test must not depend on the monitor", path, ipath)
					}
				}
			}
		}
	}
}
