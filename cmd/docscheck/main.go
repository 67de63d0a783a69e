// Command docscheck guards the repository's documentation in four ways:
//
//  1. Every relative markdown link in the repo's *.md files must point at a
//     file that exists (external http(s)/mailto links are skipped — CI has
//     no network).
//  2. The metric catalog in OPERATIONS.md must match the series the live
//     stack registers, in both directions: every registered name appears
//     in the handbook, and every `roads_*` name heading a row of one of
//     its metric tables is registered — so the operator catalog can
//     neither fall behind the code nor keep rows for series that are gone.
//     The check builds the registry exactly the way roadsd does —
//     transport + wire codec + live server.
//  3. The roadsd and roadsctl flag tables in OPERATIONS.md must match the
//     flags those commands actually register: the check go/ast-parses each
//     command's source for flag.* registrations and fails on drift in
//     either direction — a documented flag the code no longer defines, or
//     a defined flag the table does not document.
//  4. In README.md, ARCHITECTURE.md, OPERATIONS.md and DESIGN.md, every repo
//     path (cmd/…, internal/…, examples/…, bench/…, BENCH_*.json) written in
//     a code span or a code fence must exist, and every `make <target>`
//     written there must be a target the Makefile defines — deleting a
//     command, a package or a target cannot leave the docs describing it.
//  5. The codec version ARCHITECTURE.md §2 names ("currently N") and the
//     one the verify skill names ("one codec version (N)") must be the
//     version the wire package writes — a format change cannot leave either
//     describing the previous one.
//
// Run via `make docs-check` (part of the tier1 gate). Exit status is
// non-zero when any check fails; every failure is listed, not just the
// first.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"roads/internal/live"
	"roads/internal/obs"
	"roads/internal/record"
	"roads/internal/transport"
	"roads/internal/wire"
)

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	var failures []string

	mdFiles, err := markdownFiles(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "docscheck:", err)
		os.Exit(1)
	}
	for _, f := range mdFiles {
		failures = append(failures, checkLinks(root, f)...)
	}
	failures = append(failures, checkMetricsCatalog(root)...)
	failures = append(failures, checkFlagTables(root)...)
	failures = append(failures, checkRepoRefs(root)...)
	failures = append(failures, checkCodecVersion(root)...)

	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "docscheck:", f)
		}
		fmt.Fprintf(os.Stderr, "docscheck: %d failure(s)\n", len(failures))
		os.Exit(1)
	}
	fmt.Printf("docscheck: %d markdown files OK, metrics catalog, flag tables, repo references and codec version match\n", len(mdFiles))
}

// markdownFiles lists every tracked *.md file under root, skipping
// dot-directories and testdata.
func markdownFiles(root string) ([]string, error) {
	var out []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(name, ".md") {
			out = append(out, path)
		}
		return nil
	})
	return out, err
}

// linkRe matches inline markdown links [text](target). Reference-style
// links are rare in this repo and not checked.
var linkRe = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// checkLinks verifies every relative link target in file exists on disk
// (anchors are stripped; pure-anchor links within a file are skipped).
func checkLinks(root, file string) []string {
	data, err := os.ReadFile(file)
	if err != nil {
		return []string{fmt.Sprintf("%s: %v", file, err)}
	}
	var failures []string
	for _, m := range linkRe.FindAllStringSubmatch(string(data), -1) {
		target := m[1]
		if strings.HasPrefix(target, "http://") || strings.HasPrefix(target, "https://") ||
			strings.HasPrefix(target, "mailto:") || strings.HasPrefix(target, "#") {
			continue
		}
		if i := strings.IndexByte(target, '#'); i >= 0 {
			target = target[:i]
		}
		if target == "" {
			continue
		}
		resolved := filepath.Join(filepath.Dir(file), target)
		if _, err := os.Stat(resolved); err != nil {
			failures = append(failures, fmt.Sprintf("%s: broken link %q (%s does not exist)", file, m[1], resolved))
		}
	}
	return failures
}

// metricRowRe matches a metric table row: a table line whose first cell is
// a backticked series name, e.g. "| `roads_children` | gauge | ... |".
var metricRowRe = regexp.MustCompile("^\\|\\s*`(roads_[a-z0-9_]+)`")

// catalogDrift compares the handbook text with the registered series names:
// a registered name the text never mentions, and a metric table row for a
// name nothing registers, are one failure each.
func catalogDrift(ops string, registered []string) []string {
	var failures []string
	known := make(map[string]bool, len(registered))
	for _, name := range registered {
		known[name] = true
		if !strings.Contains(ops, name) {
			failures = append(failures, fmt.Sprintf("OPERATIONS.md: registered metric %q is not documented", name))
		}
	}
	for _, line := range strings.Split(ops, "\n") {
		if m := metricRowRe.FindStringSubmatch(line); m != nil && !known[m[1]] {
			failures = append(failures, fmt.Sprintf("OPERATIONS.md: the metric tables document %q but nothing registers it", m[1]))
		}
	}
	return failures
}

// checkMetricsCatalog registers every metric the way roadsd does and
// checks OPERATIONS.md against the result with catalogDrift.
func checkMetricsCatalog(root string) []string {
	reg := obs.NewRegistry()
	tr := transport.NewChan()
	tr.RegisterMetrics(reg)
	wire.RegisterMetrics(reg)
	cfg := live.DefaultConfig("docscheck", "docscheck-addr", record.DefaultSchema(2))
	cfg.Metrics = reg
	if _, err := live.NewServer(cfg, tr); err != nil {
		return []string{fmt.Sprintf("building reference server: %v", err)}
	}

	opsPath := filepath.Join(root, "OPERATIONS.md")
	data, err := os.ReadFile(opsPath)
	if err != nil {
		return []string{fmt.Sprintf("%s: %v (the metrics catalog lives there)", opsPath, err)}
	}
	return catalogDrift(string(data), reg.Names())
}

// flagTableCommands maps the OPERATIONS.md section heading that carries a
// command's flag table to the command source directory whose flag
// registrations the table must mirror.
var flagTableCommands = []struct {
	heading string // "## <heading>" prefix in OPERATIONS.md
	dir     string // command source directory under root
}{
	{"## roadsd", "cmd/roadsd"},
	{"## roadsctl", "cmd/roadsctl"},
}

// flagRowRe matches a flag table row: a table line whose first cell is a
// backticked flag name, e.g. "| `-tick` | `2s` | ... |".
var flagRowRe = regexp.MustCompile("^\\|\\s*`(-[a-zA-Z0-9-]+)`")

// checkFlagTables verifies, in both directions, that the per-command flag
// tables in OPERATIONS.md and the flag.* registrations in the command
// sources name the same flag sets.
func checkFlagTables(root string) []string {
	data, err := os.ReadFile(filepath.Join(root, "OPERATIONS.md"))
	if err != nil {
		return []string{fmt.Sprintf("OPERATIONS.md: %v (the flag tables live there)", err)}
	}
	// Split the handbook into "## " sections and collect the flag rows of
	// each command's section.
	documented := make(map[string]map[string]bool)
	section := ""
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "## ") {
			section = ""
			for _, c := range flagTableCommands {
				if strings.HasPrefix(line, c.heading) {
					section = c.dir
				}
			}
			continue
		}
		if section == "" {
			continue
		}
		if m := flagRowRe.FindStringSubmatch(line); m != nil {
			if documented[section] == nil {
				documented[section] = make(map[string]bool)
			}
			documented[section][strings.TrimPrefix(m[1], "-")] = true
		}
	}

	var failures []string
	for _, c := range flagTableCommands {
		defined, err := definedFlags(filepath.Join(root, c.dir))
		if err != nil {
			failures = append(failures, fmt.Sprintf("%s: %v", c.dir, err))
			continue
		}
		if len(defined) == 0 {
			failures = append(failures, fmt.Sprintf("%s: no flag registrations found — the docscheck flag scan is broken", c.dir))
			continue
		}
		doc := documented[c.dir]
		if len(doc) == 0 {
			failures = append(failures, fmt.Sprintf("OPERATIONS.md: no flag table found under the %q section", c.heading))
			continue
		}
		var names []string
		for name := range defined {
			names = append(names, name)
		}
		for name := range doc {
			if !defined[name] {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		for _, name := range names {
			switch {
			case !doc[name]:
				failures = append(failures, fmt.Sprintf(
					"OPERATIONS.md: %s defines flag -%s but the %q flag table does not document it", c.dir, name, c.heading))
			case !defined[name]:
				failures = append(failures, fmt.Sprintf(
					"OPERATIONS.md: the %q flag table documents -%s but %s no longer defines it", c.heading, name, c.dir))
			}
		}
	}
	return failures
}

// definedFlags go/ast-parses every .go file in dir and returns the names
// registered through the flag package: flag.String/Bool/... (name is the
// first argument) and flag.StringVar/.../flag.Var (name is the second).
func definedFlags(dir string) (map[string]bool, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, nil, 0)
	if err != nil {
		return nil, err
	}
	flags := make(map[string]bool)
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				recv, ok := sel.X.(*ast.Ident)
				if !ok || recv.Name != "flag" {
					return true
				}
				nameArg := -1
				switch sel.Sel.Name {
				case "String", "Bool", "Int", "Int64", "Uint", "Uint64", "Float64", "Duration":
					nameArg = 0
				case "StringVar", "BoolVar", "IntVar", "Int64Var", "UintVar", "Uint64Var", "Float64Var", "DurationVar", "Var", "Func":
					nameArg = 1
				default:
					return true
				}
				if nameArg >= len(call.Args) {
					return true
				}
				lit, ok := call.Args[nameArg].(*ast.BasicLit)
				if !ok || lit.Kind != token.STRING {
					return true
				}
				if name, err := strconv.Unquote(lit.Value); err == nil && name != "" {
					flags[name] = true
				}
				return true
			})
		}
	}
	return flags, nil
}

// refDocs are the documents whose repo paths and make targets must exist.
var refDocs = []string{"README.md", "ARCHITECTURE.md", "OPERATIONS.md", "DESIGN.md"}

var (
	// codeSpanRe matches an inline code span; spans wrap across the lines of
	// a hard-wrapped paragraph, so staleRefs applies it paragraph by paragraph.
	codeSpanRe = regexp.MustCompile("`[^`]+`")
	// repoPathRe matches a path under one of the repo's source trees or a
	// root benchmark archive. Globs (BENCH_*.json) do not match.
	repoPathRe = regexp.MustCompile(`\b(?:(?:cmd|internal|examples|bench)/[A-Za-z0-9_./-]*|BENCH_[A-Za-z0-9_]+\.json)`)
	makeCallRe = regexp.MustCompile(`\bmake +([a-z0-9][a-z0-9-]*)`)
	// makeTargetRe matches a rule line of the Makefile ("name:" but not the
	// "NAME := value" assignment).
	makeTargetRe = regexp.MustCompile(`(?m)^([a-z0-9][a-z0-9-]*):(?:[^=]|$)`)
)

// staleRefs returns one failure for every repo path in text's code spans and
// code fences that exists rejects, and for every `make <target>` there that
// targets lacks. A path is judged without its trailing "/", "/..." or ".".
func staleRefs(doc, text string, exists func(path string) bool, targets map[string]bool) []string {
	var code []string
	for i, block := range strings.Split(text, "```") {
		if i%2 == 1 {
			code = append(code, block)
			continue
		}
		for _, para := range strings.Split(block, "\n\n") {
			code = append(code, codeSpanRe.FindAllString(para, -1)...)
		}
	}
	var failures []string
	seen := make(map[string]bool)
	for _, c := range code {
		for _, p := range repoPathRe.FindAllString(c, -1) {
			p = strings.TrimRight(p, "./")
			if !seen[p] && !exists(p) {
				failures = append(failures, fmt.Sprintf("%s: names %q, which does not exist", doc, p))
			}
			seen[p] = true
		}
		for _, m := range makeCallRe.FindAllStringSubmatch(c, -1) {
			call := "make " + m[1]
			if !seen[call] && !targets[m[1]] {
				failures = append(failures, fmt.Sprintf("%s: names %q, which the Makefile does not define", doc, call))
			}
			seen[call] = true
		}
	}
	return failures
}

// checkRepoRefs runs staleRefs over refDocs against the tree and the
// Makefile under root.
func checkRepoRefs(root string) []string {
	mk, err := os.ReadFile(filepath.Join(root, "Makefile"))
	if err != nil {
		return []string{fmt.Sprintf("Makefile: %v (the docs' make targets are checked against it)", err)}
	}
	targets := make(map[string]bool)
	for _, m := range makeTargetRe.FindAllStringSubmatch(string(mk), -1) {
		targets[m[1]] = true
	}
	exists := func(path string) bool {
		_, err := os.Stat(filepath.Join(root, path))
		return err == nil
	}
	var failures []string
	for _, doc := range refDocs {
		data, err := os.ReadFile(filepath.Join(root, doc))
		if err != nil {
			failures = append(failures, fmt.Sprintf("%s: %v", doc, err))
			continue
		}
		failures = append(failures, staleRefs(doc, string(data), exists, targets)...)
	}
	return failures
}

// codecVersionDocs are the documents that name the codec version — a glob,
// since the verify skill sits in a tool's dot-directory — with the "## "
// section that does (empty: the whole document) and the phrase, whose first
// submatch is the number.
var codecVersionDocs = []struct {
	glob, heading string
	re            *regexp.Regexp
}{
	{"ARCHITECTURE.md", "## 2. ", regexp.MustCompile(`currently (\d+)`)},
	{filepath.Join(".*", "skills", "verify", "SKILL.md"), "", regexp.MustCompile(`one codec version \((\d+)\)`)},
}

// versionDrift returns a failure when text does not name a version through
// re, and one for every version it names that is not want.
func versionDrift(doc, text string, re *regexp.Regexp, want int) []string {
	matches := re.FindAllStringSubmatch(text, -1)
	if len(matches) == 0 {
		return []string{fmt.Sprintf("%s: names no codec version (%q); the wire package writes %d", doc, re, want)}
	}
	var failures []string
	for _, m := range matches {
		if n, err := strconv.Atoi(m[1]); err != nil || n != want {
			failures = append(failures, fmt.Sprintf("%s: names codec version %s; the wire package writes %d", doc, m[1], want))
		}
	}
	return failures
}

// checkCodecVersion runs versionDrift over codecVersionDocs against the
// version wire writes.
func checkCodecVersion(root string) []string {
	var failures []string
	for _, d := range codecVersionDocs {
		paths, _ := filepath.Glob(filepath.Join(root, d.glob)) // the patterns are well-formed
		if len(paths) == 0 {
			failures = append(failures, fmt.Sprintf("%s: no such document (it names the codec version)", d.glob))
		}
		for _, path := range paths {
			data, err := os.ReadFile(path)
			if err != nil {
				failures = append(failures, fmt.Sprintf("%s: %v", path, err))
				continue
			}
			text := string(data)
			if d.heading != "" {
				text = section(text, d.heading)
			}
			failures = append(failures, versionDrift(path, text, d.re, wire.Version)...)
		}
	}
	return failures
}

// section returns the "## " section of text whose heading starts with
// heading, and nothing when no heading does.
func section(text, heading string) string {
	start := strings.Index(text, "\n"+heading)
	if start < 0 {
		return ""
	}
	rest := text[start+1:]
	if end := strings.Index(rest, "\n## "); end >= 0 {
		return rest[:end]
	}
	return rest
}
