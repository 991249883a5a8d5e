// Package lint implements stmaker-lint, the project-specific static
// analyzer behind `make lint`. It is a two-pass engine over the whole
// module, built on the standard library's go/parser + go/types (source
// importer — no golang.org/x/tools dependency, preserving the zero-dep
// module):
//
// Pass 1 parses every package, type-checks them concurrently in
// dependency order, and records per-package facts the checks share —
// the typed AST, the function index, and the suppression table.
// Pass 2 runs the checks, each backed where needed by the lightweight
// intra-procedural dataflow layer in dataflow.go (assignment/alias
// tracking over go/types):
//
//   - metricnames: string literals passed to metrics.Registry.Counter /
//     Histogram must be compile-time snake_case constants, counters must
//     end in _total, and the set of names in code must agree both ways
//     with the catalogue in docs/OBSERVABILITY.md.
//   - latlng: geo.Point composite literals must use keyed fields, and
//     call sites of functions with lat/lng-named parameters are flagged
//     when the argument identifiers look swapped.
//   - floateq: == and != on floating-point operands outside tests.
//   - ctxrule: context.Context must be the first parameter, and
//     internal/* library code must not mint root contexts with
//     context.Background / context.TODO.
//   - poolput: a function that calls sync.Pool.Get but never calls Put
//     leaks the pooled object.
//   - modelmut: no field writes or element stores to stmaker.Model or
//     any type reachable from it outside the builder/codec allowlist —
//     the immutability contract behind the atomic hot swap.
//   - poolescape: a value from sync.Pool.Get (or memory it backs) must
//     not be returned, stored to a heap-reachable location, or captured
//     by a goroutine in a function that Puts it back.
//   - atomiccell: .Store/.Swap/.CompareAndSwap on the model-carrying
//     atomic.Pointer cells only inside the designated publish helpers.
//   - statusmap: two-way sync between sentinel errors referenced in
//     internal/server and the status table in docs/API.md.
//   - testonly: a function or method of an internal/ package that no
//     non-test file of the loaded tree references outside its own body,
//     unless an interface its receiver implements declares it.
//
// Diagnostics can be suppressed with a trailing (or preceding-line)
// comment `//nolint:stmaker/<check>` — or `//lint:allow <check>`, the
// conventional escape hatch for floateq. docs/STATIC_ANALYSIS.md is the
// user-facing guide.
package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Diagnostic is one finding: a position, the check that produced it and a
// human-readable message.
type Diagnostic struct {
	Pos   token.Position
	Check string
	Msg   string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Check, d.Msg)
}

// Package is one type-checked package ready for analysis, carrying the
// pass-1 facts every check shares: the typed AST, the function index
// and the suppression table.
type Package struct {
	Path  string // import path
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// Funcs indexes every function declaration with a body, in file
	// order — the unit the dataflow layer analyzes. Built once in pass 1
	// so the per-function checks don't re-walk the declaration lists.
	Funcs []*ast.FuncDecl

	supp map[string]map[int][]string // filename -> line -> suppressed check names ("*" = all)
}

// parsedPkg is a package that has been parsed but not yet type-checked.
type parsedPkg struct {
	dir        string
	importPath string
	files      []*ast.File
}

// loader type-checks the module's packages in dependency order, serving
// module-internal imports from its own results and everything else (the
// standard library) from the stdlib source importer. Load type-checks
// independent packages concurrently; mu guards the built map and srcMu
// serializes the stdlib source importer, which is not safe for
// concurrent use (each stdlib package is still only type-checked once
// and cached, so the serial section shrinks as the warm-up completes).
type loader struct {
	fset   *token.FileSet
	src    types.Importer
	parsed map[string]*parsedPkg
	built  map[string]*Package
	mu     sync.Mutex
	srcMu  sync.Mutex
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// Load parses and type-checks every non-test package under the module
// rooted at root (the directory containing go.mod). testdata, hidden and
// underscore-prefixed directories are skipped, as `go build ./...` does.
func Load(root string) ([]*Package, error) {
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	l := newLoader()
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, walkErr error) error {
		if walkErr != nil {
			return walkErr
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return fs.SkipDir
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		ip := modPath
		if rel != "." {
			ip = modPath + "/" + filepath.ToSlash(rel)
		}
		pp, err := l.parseDir(path, ip)
		if err != nil {
			return err
		}
		if pp != nil {
			l.parsed[ip] = pp
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return l.buildAll()
}

// buildAll type-checks every parsed package, running independent
// packages concurrently: each package waits only for its module-internal
// imports, so the module's dependency DAG — not its package count —
// bounds the critical path.
func (l *loader) buildAll() ([]*Package, error) {
	paths := make([]string, 0, len(l.parsed))
	for ip := range l.parsed {
		paths = append(paths, ip)
	}
	sort.Strings(paths)

	// Module-internal dependency edges, from the parsed import specs.
	deps := make(map[string][]string, len(paths))
	for _, ip := range paths {
		for _, f := range l.parsed[ip].files {
			for _, imp := range f.Imports {
				dep, err := strconv.Unquote(imp.Path.Value)
				if err != nil {
					continue
				}
				if _, ok := l.parsed[dep]; ok && dep != ip {
					deps[ip] = append(deps[ip], dep)
				}
			}
		}
	}
	// Cycle detection up front: the concurrent scheme below would
	// deadlock on one.
	for _, ip := range paths {
		if _, err := l.checkCycle(ip, deps, make(map[string]int)); err != nil {
			return nil, err
		}
	}

	type signal struct {
		ch  chan struct{}
		err error
	}
	done := make(map[string]*signal, len(paths))
	for _, ip := range paths {
		done[ip] = &signal{ch: make(chan struct{})}
	}
	var wg sync.WaitGroup
	for _, ip := range paths {
		wg.Add(1)
		go func(ip string) {
			defer wg.Done()
			s := done[ip]
			defer close(s.ch)
			for _, dep := range deps[ip] {
				<-done[dep].ch
				if done[dep].err != nil {
					s.err = fmt.Errorf("lint: not building %s: dependency failed: %w", ip, done[dep].err)
					return
				}
			}
			_, s.err = l.buildOne(ip)
		}(ip)
	}
	wg.Wait()

	pkgs := make([]*Package, 0, len(paths))
	for _, ip := range paths {
		if err := done[ip].err; err != nil {
			return nil, err
		}
		l.mu.Lock()
		p := l.built[ip]
		l.mu.Unlock()
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// checkCycle DFS-walks the dependency graph (state: 0 unvisited,
// 1 on stack, 2 done) and reports an import cycle as an error.
func (l *loader) checkCycle(ip string, deps map[string][]string, state map[string]int) (bool, error) {
	switch state[ip] {
	case 1:
		return false, fmt.Errorf("lint: import cycle through %s", ip)
	case 2:
		return true, nil
	}
	state[ip] = 1
	for _, dep := range deps[ip] {
		if _, err := l.checkCycle(dep, deps, state); err != nil {
			return false, err
		}
	}
	state[ip] = 2
	return true, nil
}

func newLoader() *loader {
	l := &loader{
		fset:   token.NewFileSet(),
		parsed: make(map[string]*parsedPkg),
		built:  make(map[string]*Package),
	}
	l.src = importer.ForCompiler(l.fset, "source", nil)
	return l
}

// parseDir parses the non-test Go files of one directory, returning nil
// when the directory holds no Go package.
func (l *loader) parseDir(dir, importPath string) (*parsedPkg, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	pp := &parsedPkg{dir: dir, importPath: importPath}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil,
			parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		pp.files = append(pp.files, f)
	}
	if len(pp.files) == 0 {
		return nil, nil
	}
	return pp, nil
}

// buildOne type-checks one package whose module-internal dependencies
// have already been built (buildAll guarantees the ordering).
func (l *loader) buildOne(ip string) (*Package, error) {
	return l.typecheck(ip, importerFunc(func(path string) (*types.Package, error) {
		l.mu.Lock()
		p, ok := l.built[path]
		l.mu.Unlock()
		if ok {
			return p.Types, nil
		}
		if _, parsed := l.parsed[path]; parsed {
			return nil, fmt.Errorf("lint: internal error: dependency %s not built before %s", path, ip)
		}
		return l.srcImport(path)
	}))
}

// srcImport serializes access to the stdlib source importer, which
// caches aggressively but is not safe for concurrent use.
func (l *loader) srcImport(path string) (*types.Package, error) {
	l.srcMu.Lock()
	defer l.srcMu.Unlock()
	return l.src.Import(path)
}

// typecheck runs go/types over one parsed package and assembles the
// Package with its pass-1 facts (function index, suppression table).
func (l *loader) typecheck(ip string, imp types.Importer) (*Package, error) {
	pp := l.parsed[ip]
	info := &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
	}
	conf := types.Config{Importer: imp}
	tp, err := conf.Check(ip, l.fset, pp.files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", ip, err)
	}
	p := &Package{Path: ip, Fset: l.fset, Files: pp.files, Types: tp, Info: info}
	p.supp = collectSuppressions(l.fset, pp.files)
	for _, f := range pp.files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				p.Funcs = append(p.Funcs, fd)
			}
		}
	}
	l.mu.Lock()
	l.built[ip] = p
	l.mu.Unlock()
	return p, nil
}

// modulePath reads the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s", gomod)
}

// nolintRE matches //nolint:stmaker or //nolint:stmaker/check1[,stmaker/check2...],
// optionally followed by an explanatory comment.
var nolintRE = regexp.MustCompile(`^\s*nolint:(stmaker(?:/[a-z]+)?(?:,\s*stmaker(?:/[a-z]+)?)*)(?:\s|$)`)

// allowRE matches //lint:allow check1[ check2...].
var allowRE = regexp.MustCompile(`^\s*lint:allow\s+([a-z ]+)`)

// collectSuppressions scans every comment for suppression directives and
// records the check names suppressed at each (file, line).
func collectSuppressions(fset *token.FileSet, files []*ast.File) map[string]map[int][]string {
	supp := make(map[string]map[int][]string)
	add := func(pos token.Pos, names []string) {
		position := fset.Position(pos)
		byLine := supp[position.Filename]
		if byLine == nil {
			byLine = make(map[int][]string)
			supp[position.Filename] = byLine
		}
		byLine[position.Line] = append(byLine[position.Line], names...)
	}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				if m := nolintRE.FindStringSubmatch(text); m != nil {
					var names []string
					for _, part := range strings.Split(m[1], ",") {
						part = strings.TrimSpace(part)
						if check, ok := strings.CutPrefix(part, "stmaker/"); ok {
							names = append(names, check)
						} else { // bare "nolint:stmaker" silences every check
							names = append(names, "*")
						}
					}
					add(c.Pos(), names)
				} else if m := allowRE.FindStringSubmatch(text); m != nil {
					add(c.Pos(), strings.Fields(m[1]))
				}
			}
		}
	}
	return supp
}

// suppressed reports whether a diagnostic from check at position is
// silenced by a directive on the same line or the line above.
func (p *Package) suppressed(check string, position token.Position) bool {
	byLine := p.supp[position.Filename]
	if byLine == nil {
		return false
	}
	for _, line := range []int{position.Line, position.Line - 1} {
		for _, name := range byLine[line] {
			if name == check || name == "*" {
				return true
			}
		}
	}
	return false
}

// reporter accumulates diagnostics, dropping suppressed ones.
type reporter struct {
	diags []Diagnostic
}

// report files a diagnostic for check at pos within p, honouring
// suppression directives.
func (r *reporter) report(p *Package, check string, pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.suppressed(check, position) {
		return
	}
	r.diags = append(r.diags, Diagnostic{Pos: position, Check: check, Msg: fmt.Sprintf(format, args...)})
}

// reportAt files a diagnostic at an arbitrary position (used for findings
// in non-Go files such as the metrics catalogue, where no suppression
// directives apply).
func (r *reporter) reportAt(check string, position token.Position, format string, args ...any) {
	r.diags = append(r.diags, Diagnostic{Pos: position, Check: check, Msg: fmt.Sprintf(format, args...)})
}

// Options configures a Run.
type Options struct {
	// DocPath is the metrics catalogue (docs/OBSERVABILITY.md) checked
	// two-ways against the metric names used in code. Empty disables the
	// documentation cross-check.
	DocPath string
	// APIDocPath is the API reference (docs/API.md) whose status-row
	// tables statusmap checks two-ways against the sentinel errors
	// referenced in internal/server. Empty disables the cross-check.
	APIDocPath string
	// Checks selects a subset of checks by name; nil runs all of them.
	Checks []string
}

// checker is one named analysis. pkg is called once per package; finish
// once after all packages, for cross-package verdicts.
type checker interface {
	name() string
	pkg(r *reporter, p *Package)
	finish(r *reporter)
}

// AllChecks lists every check name, in the order they run.
func AllChecks() []string {
	return []string{"metricnames", "latlng", "floateq", "ctxrule", "poolput",
		"modelmut", "poolescape", "atomiccell", "statusmap", "testonly"}
}

func newCheckers(opts Options) ([]checker, error) {
	all := map[string]checker{
		"metricnames": &metricNamesCheck{docPath: opts.DocPath, used: make(map[string]metricUse)},
		"latlng":      latlngCheck{},
		"floateq":     floateqCheck{},
		"ctxrule":     ctxruleCheck{},
		"poolput":     poolputCheck{},
		"modelmut":    &modelmutCheck{},
		"poolescape":  poolescapeCheck{},
		"atomiccell":  atomiccellCheck{},
		"statusmap":   &statusmapCheck{apiPath: opts.APIDocPath, refs: make(map[string]*sentinelRef)},
		"testonly": &testonlyCheck{used: make(map[*types.Func]bool),
			ifaces: make(map[string][]*types.Interface), seen: make(map[*types.Package]bool)},
	}
	names := opts.Checks
	if names == nil {
		names = AllChecks()
	}
	cs := make([]checker, 0, len(names))
	for _, n := range names {
		c, ok := all[n]
		if !ok {
			return nil, fmt.Errorf("lint: unknown check %q (have %s)", n, strings.Join(AllChecks(), ", "))
		}
		cs = append(cs, c)
	}
	return cs, nil
}

// CheckTiming records one check's wall-clock cost over the whole run,
// surfaced by `stmaker-lint -v`.
type CheckTiming struct {
	Name     string
	Duration time.Duration
}

// RunTimed analyses the packages and returns the surviving diagnostics
// sorted by position, with per-check timings. Checks are independent of one
// another, so each runs on its own goroutine with a private reporter;
// the merged diagnostics are position-sorted, which keeps the output
// deterministic regardless of scheduling.
func RunTimed(pkgs []*Package, opts Options) ([]Diagnostic, []CheckTiming, error) {
	cs, err := newCheckers(opts)
	if err != nil {
		return nil, nil, err
	}
	reporters := make([]reporter, len(cs))
	timings := make([]CheckTiming, len(cs))
	var wg sync.WaitGroup
	for i, c := range cs {
		wg.Add(1)
		go func(i int, c checker) {
			defer wg.Done()
			start := time.Now()
			for _, p := range pkgs {
				c.pkg(&reporters[i], p)
			}
			c.finish(&reporters[i])
			timings[i] = CheckTiming{Name: c.name(), Duration: time.Since(start)}
		}(i, c)
	}
	wg.Wait()
	r := &reporter{}
	for i := range reporters {
		r.diags = append(r.diags, reporters[i].diags...)
	}
	sort.Slice(r.diags, func(i, j int) bool {
		a, b := r.diags[i].Pos, r.diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return r.diags[i].Check < r.diags[j].Check
	})
	return r.diags, timings, nil
}
