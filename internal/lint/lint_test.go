package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// loadDir parses and type-checks the single package in dir under the
// given import path: the fixture packages live under testdata, which
// Load skips.
func loadDir(dir, importPath string) (*Package, error) {
	l := newLoader()
	pp, err := l.parseDir(dir, importPath)
	if err != nil {
		return nil, err
	}
	if pp == nil {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	l.parsed[importPath] = pp
	pkgs, err := l.buildAll()
	if err != nil {
		return nil, err
	}
	return pkgs[0], nil
}

// run is RunTimed without the timings.
func run(pkgs []*Package, opts Options) ([]Diagnostic, error) {
	diags, _, err := RunTimed(pkgs, opts)
	return diags, err
}

// wantRE extracts `// want "regexp"` annotations from fixture sources.
// The quoted text is a regular expression matched against the message of
// a diagnostic reported on the same line.
var wantRE = regexp.MustCompile(`// want "((?:[^"\\]|\\.)*)"`)

// golden runs the named checks over one fixture package and verifies the
// diagnostics against the fixture's // want annotations: every want must
// be matched by a diagnostic on its line, and every diagnostic must be
// claimed by a want.
func golden(t *testing.T, dir, importPath string, checks []string, docFile, apiFile string) {
	t.Helper()
	fixture := filepath.Join("testdata", "src", dir)
	pkg, err := loadDir(fixture, importPath)
	if err != nil {
		t.Fatalf("loadDir(%s): %v", fixture, err)
	}
	opts := Options{Checks: checks}
	if docFile != "" {
		opts.DocPath = filepath.Join(fixture, docFile)
	}
	if apiFile != "" {
		opts.APIDocPath = filepath.Join(fixture, apiFile)
	}
	diags, err := run([]*Package{pkg}, opts)
	if err != nil {
		t.Fatalf("run: %v", err)
	}

	type want struct {
		re      *regexp.Regexp
		matched bool
	}
	wants := make(map[string][]*want) // "file:line" -> expectations
	addWants := func(path string) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range wantRE.FindAllStringSubmatch(line, -1) {
				re, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("%s:%d: bad want regexp %q: %v", path, i+1, m[1], err)
				}
				key := fmt.Sprintf("%s:%d", filepath.Base(path), i+1)
				wants[key] = append(wants[key], &want{re: re})
			}
		}
	}
	entries, err := os.ReadDir(fixture)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".go") {
			addWants(filepath.Join(fixture, e.Name()))
		}
	}

	for _, d := range diags {
		if !strings.HasSuffix(d.Pos.Filename, ".go") {
			continue // doc-side diagnostics are asserted in dedicated tests
		}
		key := fmt.Sprintf("%s:%d", filepath.Base(d.Pos.Filename), d.Pos.Line)
		claimed := false
		for _, w := range wants[key] {
			if !w.matched && w.re.MatchString(d.Msg) {
				w.matched, claimed = true, true
				break
			}
		}
		if !claimed {
			t.Errorf("unexpected diagnostic at %s: %s: %s", key, d.Check, d.Msg)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("%s: expected diagnostic matching %q, got none", key, w.re)
			}
		}
	}
}

func TestMetricNames(t *testing.T) {
	golden(t, "metricnames", "stmaker/internal/lintfixture/metricnames",
		[]string{"metricnames"}, "OBSERVABILITY.md", "")
}

// TestMetricNamesDocGhost covers the doc-side direction of the two-way
// check: names documented in the catalogue but absent from code are
// reported at their catalogue line. Ghost expectations live here rather
// than in // want comments because markdown carries none.
func TestMetricNamesDocGhost(t *testing.T) {
	fixture := filepath.Join("testdata", "src", "metricnames")
	pkg, err := loadDir(fixture, "stmaker/internal/lintfixture/metricnames")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := run([]*Package{pkg}, Options{
		Checks:  []string{"metricnames"},
		DocPath: filepath.Join(fixture, "OBSERVABILITY.md"),
	})
	if err != nil {
		t.Fatal(err)
	}
	var ghosts []string
	for _, d := range diags {
		if strings.HasSuffix(d.Pos.Filename, ".md") {
			ghosts = append(ghosts, d.Msg)
		}
	}
	if len(ghosts) != 1 || !strings.Contains(ghosts[0], `"ghost_metric_total"`) {
		t.Errorf("want exactly one ghost-metric diagnostic for ghost_metric_total, got %q", ghosts)
	}
}

func TestLatLng(t *testing.T) {
	golden(t, "latlng", "stmaker/internal/lintfixture/latlng", []string{"latlng"}, "", "")
}

func TestFloatEq(t *testing.T) {
	golden(t, "floateq", "stmaker/internal/lintfixture/floateq", []string{"floateq"}, "", "")
}

func TestCtxRule(t *testing.T) {
	golden(t, "ctxrule", "stmaker/internal/lintfixture/ctxrule", []string{"ctxrule"}, "", "")
}

// TestCtxRuleOutsideInternal verifies the Background/TODO rule only bites
// internal/* packages: the same fixture loaded under a non-internal
// import path reports no root-context diagnostics (the parameter-order
// rule still applies everywhere, so run only files without those).
func TestCtxRuleOutsideInternal(t *testing.T) {
	pkg, err := loadDir(filepath.Join("testdata", "src", "ctxok"), "stmaker/lintfixture/ctxok")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := run([]*Package{pkg}, Options{Checks: []string{"ctxrule"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Errorf("non-internal package should be allowed context.Background, got %v", diags)
	}
}

func TestPoolPut(t *testing.T) {
	golden(t, "poolput", "stmaker/internal/lintfixture/poolput", []string{"poolput"}, "", "")
}

// TestModelMut covers the Model-immutability dataflow check: direct and
// nested field writes, element stores, alias chains through locals and
// range loops, map deletes, and pointer-deref overwrites are flagged;
// value-chain copies, builders, and suppressed sites are not.
func TestModelMut(t *testing.T) {
	golden(t, "modelmut", "stmaker", []string{"modelmut"}, "", "")
}

// TestPoolEscape covers pooled-memory escape tracking: returns, global
// stores, goroutine captures, channel sends, and caller-visible stores
// through parameters are flagged, including through bytes.* passthrough
// and struct-field aliasing; copies and scalar reads stay clean.
func TestPoolEscape(t *testing.T) {
	golden(t, "poolescape", "stmaker/internal/lintfixture/poolescape", []string{"poolescape"}, "", "")
}

// TestAtomicCell covers the publish-helper discipline for the
// process-wide atomic.Pointer[Model] cell.
func TestAtomicCell(t *testing.T) {
	golden(t, "atomiccell", "stmaker", []string{"atomiccell"}, "", "")
}

// TestAtomicCellRegistry covers the same discipline for the registry's
// per-region atomic.Pointer[cellState] cells, including the designated
// publishers being exempt.
func TestAtomicCellRegistry(t *testing.T) {
	golden(t, "atomicreg", "stmaker/internal/registry", []string{"atomiccell"}, "", "")
}

// TestStatusMap covers the code-side direction of the error-taxonomy
// check: unmapped sentinels and code-vs-doc status disagreements are
// reported at the errors.Is site; stdlib sentinels and suppressed
// internal sentinels are not.
func TestStatusMap(t *testing.T) {
	golden(t, "statusmap", "stmaker/internal/server", []string{"statusmap"}, "", "API.md")
}

// TestStatusMapDocSide asserts the doc-side diagnostics the golden
// harness filters out: the stale row for ErrGhost (documented, no longer
// mapped) and the multi-status rows for ErrDouble, each reported at its
// markdown line.
func TestStatusMapDocSide(t *testing.T) {
	fixture := filepath.Join("testdata", "src", "statusmap")
	pkg, err := loadDir(fixture, "stmaker/internal/server")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := run([]*Package{pkg}, Options{
		Checks:     []string{"statusmap"},
		APIDocPath: filepath.Join(fixture, "API.md"),
	})
	if err != nil {
		t.Fatal(err)
	}
	var docMsgs []string
	for _, d := range diags {
		if strings.HasSuffix(d.Pos.Filename, ".md") {
			docMsgs = append(docMsgs, fmt.Sprintf("line %d: %s", d.Pos.Line, d.Msg))
		}
	}
	if len(docMsgs) != 2 {
		t.Fatalf("want exactly 2 doc-side diagnostics, got %d: %q", len(docMsgs), docMsgs)
	}
	var ghost, double bool
	for _, m := range docMsgs {
		if strings.Contains(m, "ErrGhost") && strings.Contains(m, "stale row") {
			ghost = true
		}
		if strings.Contains(m, "ErrDouble") && strings.Contains(m, "multiple statuses") {
			double = true
		}
	}
	if !ghost || !double {
		t.Errorf("want a stale-row diagnostic for ErrGhost and a multi-status diagnostic for ErrDouble, got %q", docMsgs)
	}
}

// TestTestOnly covers the dead-code check: unreferenced exported and
// unexported functions, a function referenced only from its own body and
// a method no interface declares are flagged; a referenced function,
// methods reached through the module's or the standard library's
// interfaces, uses through a generic instantiation and a suppressed
// declaration are not.
func TestTestOnly(t *testing.T) {
	golden(t, "testonly", "stmaker/internal/lintfixture/testonly", []string{"testonly"}, "", "")
}

// TestRepoSweepClean pins the full-repo sweep at zero findings: every
// check over every package of this module, with the real doc catalogues.
// Any future regression against the linted invariants fails here first.
func TestRepoSweepClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := Load(root)
	if err != nil {
		t.Fatal(err)
	}
	diags, err := run(pkgs, Options{
		Checks:     AllChecks(),
		DocPath:    filepath.Join(root, "docs", "OBSERVABILITY.md"),
		APIDocPath: filepath.Join(root, "docs", "API.md"),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("sweep finding: %s:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Check, d.Msg)
	}
}

// TestRunUnknownCheck verifies the check-selection error path.
func TestRunUnknownCheck(t *testing.T) {
	if _, err := run(nil, Options{Checks: []string{"nope"}}); err == nil {
		t.Fatal("expected error for unknown check name")
	}
}

// TestLoadModule smoke-tests the whole-module loader the binary uses: it
// must load this repository (the linter's own gate) without error. The
// list names the benchmark module and an example as well: testonly
// counts their calls, and a Load that skipped them would report the
// functions only bench/ calls (server.NewWithOptions,
// feature.NormalizeByMax and others) as dead, inviting deletions that
// break `make bench-check`.
func TestLoadModule(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := Load(root)
	if err != nil {
		t.Fatal(err)
	}
	byPath := make(map[string]bool, len(pkgs))
	for _, p := range pkgs {
		byPath[p.Path] = true
	}
	for _, want := range []string{"stmaker", "stmaker/internal/geo", "stmaker/internal/lint", "stmaker/cmd/stmaker-lint",
		"stmaker/bench", "stmaker/examples/quickstart"} {
		if !byPath[want] {
			t.Errorf("Load missed package %s", want)
		}
	}
}
