package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// moduleImports returns the packages of this module that the non-test Go
// files in dir import, sorted.
func moduleImports(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatalf("%s: no Go files", dir)
	}
	var imports []string
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		for _, path := range fileImports(t, file) {
			if strings.HasPrefix(path, "repro/") && !slices.Contains(imports, path) {
				imports = append(imports, path)
			}
		}
	}
	slices.Sort(imports)
	return imports
}

// fileImports returns the import paths of one Go file.
func fileImports(t *testing.T, file string) []string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.ImportsOnly)
	if err != nil {
		t.Fatal(err)
	}
	var paths []string
	for _, spec := range f.Imports {
		path, err := strconv.Unquote(spec.Path.Value)
		if err != nil {
			t.Fatal(err)
		}
		paths = append(paths, path)
	}
	return paths
}

// nonTestFiles returns every non-test Go file of the tree, benchmark/
// included, outside hidden directories and testdata.
func nonTestFiles(t *testing.T) []string {
	t.Helper()
	var files []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// transitiveImports returns every package of this module that the package
// in dir depends on, directly or not, through non-test files.
func transitiveImports(t *testing.T, dir string) []string {
	t.Helper()
	var seen []string
	for queue := moduleImports(t, dir); len(queue) > 0; {
		path := queue[0]
		queue = queue[1:]
		if slices.Contains(seen, path) {
			continue
		}
		seen = append(seen, path)
		queue = append(queue, moduleImports(t, strings.TrimPrefix(path, "repro/"))...)
	}
	slices.Sort(seen)
	return seen
}

// TestImportLayering pins the package layers by parsing the non-test
// imports of the tree:
//   - the node (internal/cluster) imports no fault emulator, journal,
//     simulator or store implementation: each of those is handed to it
//     through Config (Transport, Storage, Store), or sits above it;
//   - the server binary does not link the fault emulator, directly or not;
//   - the paper core imports only the paper core;
//   - a store implementation imports only the core, the byte layers and
//     internal/store (and kbuffer the causal store it wraps);
//   - the journal (internal/durable) imports only the node's storage seam
//     and the byte layers beneath it;
//   - no non-test file outside internal/wire imports unsafe: the codec's
//     Reader.StringView is the one place memory is viewed as a string.
//
// An edge that breaks a rule today is listed in exceptions with the
// ROADMAP item that removes it; an exception no edge needs any more fails
// too, so the list only shrinks.
func TestImportLayering(t *testing.T) {
	const in = "repro/internal/"
	exceptions := map[string]string{
		"internal/durable → " + in + "membership": "ROADMAP item 1(c): NodeStorage.Open's forest result",
	}
	var broken []string
	breaks := func(pkg, imp, rule string) {
		edge := pkg + " → " + imp
		if _, ok := exceptions[edge]; ok {
			delete(exceptions, edge)
			return
		}
		broken = append(broken, edge+": "+rule)
	}

	for _, imp := range moduleImports(t, "internal/cluster") {
		if slices.Contains([]string{in + "fault", in + "durable", in + "sim"}, imp) ||
			strings.HasPrefix(imp, in+"store/") {
			breaks("internal/cluster", imp, "the node is handed faults, journals and stores; it imports none")
		}
	}
	for _, imp := range transitiveImports(t, "cmd/served") {
		if imp == in+"fault" {
			breaks("cmd/served", imp, "the server never links the fault emulator")
		}
	}
	core := []string{"model", "execution", "abstract", "spec", "consistency", "vclock"}
	for _, pkg := range core {
		for _, imp := range moduleImports(t, "internal/"+pkg) {
			if !slices.Contains(core, strings.TrimPrefix(imp, in)) {
				breaks("internal/"+pkg, imp, "the paper core imports only the paper core")
			}
		}
	}
	stores := []string{"causal", "gsp", "kbuffer", "lww", "statesync"}
	for _, pkg := range stores {
		allowed := append([]string{"store", "wire", "seglog"}, core...)
		if pkg == "kbuffer" {
			allowed = append(allowed, "store/causal")
		}
		for _, imp := range moduleImports(t, "internal/store/"+pkg) {
			if !slices.Contains(allowed, strings.TrimPrefix(imp, in)) {
				breaks("internal/store/"+pkg, imp, "a store imports only the core, the byte layers and internal/store")
			}
		}
	}
	for _, imp := range moduleImports(t, "internal/durable") {
		if !slices.Contains([]string{"cluster", "wire", "seglog", "model"}, strings.TrimPrefix(imp, in)) {
			breaks("internal/durable", imp, "the journal imports only the node's storage seam and the byte layers")
		}
	}
	for _, file := range nonTestFiles(t) {
		if dir := filepath.Dir(file); dir != "internal/wire" && slices.Contains(fileImports(t, file), "unsafe") {
			breaks(file, "unsafe", "only internal/wire imports unsafe")
		}
	}

	for _, edge := range broken {
		t.Errorf("layering broken: %s", edge)
	}
	for edge, item := range exceptions {
		t.Errorf("exception %s (%s) is no longer needed: delete it", edge, item)
	}
}

// TestEventCodecOwner pins the event codec to one owner: no non-test file
// outside internal/cluster names AppendEventBinary, DecodeEventBinary or
// EventDecoder. A journal frames, keeps and hands back the records a shard
// stages (cluster.JournalStorage), and the shard decodes what it restores,
// so neither internal/durable nor a storage above it ever encodes or decodes
// an event. The frozen benchmark/ times the codec and is the one exception;
// an exception no file needs any more fails too.
func TestEventCodecOwner(t *testing.T) {
	codec := []string{"AppendEventBinary", "DecodeEventBinary", "EventDecoder"}
	exceptions := map[string]string{
		"benchmark/layers.go": "the frozen benchmark times the codec (the next benchmark PR)",
	}
	for _, file := range nonTestFiles(t) {
		if strings.HasPrefix(file, "internal/cluster/") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		var named []string
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok && slices.Contains(codec, sel.Sel.Name) && !slices.Contains(named, sel.Sel.Name) {
				named = append(named, sel.Sel.Name)
			}
			return true
		})
		if len(named) == 0 {
			continue
		}
		if _, ok := exceptions[file]; ok {
			delete(exceptions, file)
			continue
		}
		t.Errorf("%s names %s: only internal/cluster encodes or decodes an event", file, strings.Join(named, ", "))
	}
	for file, why := range exceptions {
		t.Errorf("exception %s (%s) no longer names the codec: delete it", file, why)
	}
}

// TestStringViewCallers pins who views memory as a string. What
// wire.Reader.StringView returns is only as immutable as the buffer under
// it, so every non-test function that calls it is listed here with that
// buffer's lifetime, and its doc comment must speak of the views it makes
// and state the lifetime too. A new caller fails until it is listed, and a
// listed function that no longer calls StringView fails too.
func TestStringViewCallers(t *testing.T) {
	owners := map[string]string{
		"internal/store/causal.(*Replica).decodeUpdate": "a received payload, the replica's to keep (store.Replica.Receive)",
		"internal/cluster.decodeRequest":                "a request frame, lent for one answer: the do record's head copies it before the next read",
		"internal/cluster.doHeadViews":                  "a do record's head, history bytes nothing writes again (seglog.Blocks.Open)",
	}
	for _, file := range nonTestFiles(t) {
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || !callsStringView(fn) {
				continue
			}
			name := filepath.Dir(file) + "." + funcName(fn)
			if _, ok := owners[name]; !ok {
				t.Errorf("%s calls wire.Reader.StringView: list it here with its buffer's lifetime", name)
				continue
			}
			delete(owners, name)
			if doc := fn.Doc.Text(); !strings.Contains(doc, "view") {
				t.Errorf("%s calls wire.Reader.StringView, and its doc does not say what its views are views of", name)
			}
		}
	}
	for name := range owners {
		t.Errorf("%s no longer calls wire.Reader.StringView: delete it from the list", name)
	}
}

// callsStringView reports whether fn's body names a StringView selector.
func callsStringView(fn *ast.FuncDecl) bool {
	found := false
	if fn.Body != nil {
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "StringView" {
				found = true
			}
			return !found
		})
	}
	return found
}

// funcName renders fn as Go tools do: name, or (*T).name for a method.
func funcName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return fn.Name.Name
	}
	switch typ := fn.Recv.List[0].Type.(type) {
	case *ast.StarExpr:
		if id, ok := typ.X.(*ast.Ident); ok {
			return "(*" + id.Name + ")." + fn.Name.Name
		}
	case *ast.Ident:
		return typ.Name + "." + fn.Name.Name
	}
	return fn.Name.Name
}
