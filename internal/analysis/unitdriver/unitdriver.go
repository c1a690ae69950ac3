// Package unitdriver implements the command-line protocol that `go vet
// -vettool=...` requires of an analysis tool, against the standard library
// only (a stdlib-only stand-in for golang.org/x/tools/go/analysis/unitchecker):
//
//	-V=full        describe the executable for build caching
//	-flags         describe supported flags in JSON
//	foo.cfg        analyze the single compilation unit described by the
//	               JSON config file the go command wrote
//
// The go command type-checks every dependency and hands this driver the
// export-data files; the driver parses the unit's sources, type-checks them
// through go/importer with a lookup into those files, runs the analyzers and
// prints diagnostics to stderr (exit status 1 when there are any).
//
// The fact file (.vetx) this driver writes is how function summaries cross
// packages: it holds the unit's import path and the summary bank its
// analyzers exported (obligation, borrow and lock transfer per function).
// Dependency vetx files arrive back through Config.PackageVetx and feed the
// interprocedural analyzers. Caching is the go command's: it keys each vet
// action on the tool's -V=full identity and the unit's inputs, dependency
// vetx files included, so an unchanged unit is not re-run at all.
//
// Invoked with package patterns instead of a .cfg file, the driver re-executes
// itself through `go vet -vettool=<self>`, which provides the standalone
// `dualvet ./...` interface without a package loader.
package unitdriver

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"log"
	"os"
	"os/exec"
	"regexp"
	"sort"
	"strings"

	"dualcdb/internal/analysis/dataflow"
	"dualcdb/internal/analysis/framework"
)

// Config mirrors the JSON compilation-unit description the go command
// writes for vet tools (cmd/go/internal/work.vetConfig).
type Config struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	NonGoFiles                []string
	IgnoredFiles              []string
	ModulePath                string
	ModuleVersion             string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// vetxRecord is the JSON body of a vetx file. Summaries holds only
// "interesting" entries (anything a caller could not assume from the
// unknown-callee default); a VetxOnly unit writes the record without them.
type vetxRecord struct {
	ImportPath string                     `json:"import_path"`
	Summaries  *dataflow.PackageSummaries `json:"summaries,omitempty"`
}

// Main is the entry point of a dualvet-style vet tool.
func Main(analyzers ...*framework.Analyzer) {
	progname := "dualvet"
	log.SetFlags(0)
	log.SetPrefix(progname + ": ")

	// -annotations is peeled before the go vet protocol check: it only
	// makes sense on the human-facing invocation and must not reach go vet
	// as a package pattern.
	annotations := false
	rest := make([]string, 0, len(os.Args)-1)
	for _, a := range os.Args[1:] {
		if a == "-annotations" || a == "--annotations" {
			annotations = true
			continue
		}
		rest = append(rest, a)
	}
	if standalone(rest) {
		os.Exit(reexecGoVet(rest, annotations))
	}

	fs := flag.NewFlagSet(progname, flag.ExitOnError)
	fs.Var(versionFlag{}, "V", "print version and exit")
	printflags := fs.Bool("flags", false, "print analyzer flags in JSON")
	enabled := make(map[string]*bool, len(analyzers))
	for _, a := range analyzers {
		enabled[a.Name] = fs.Bool(a.Name, false, a.Doc)
	}
	if err := fs.Parse(rest); err != nil {
		log.Fatal(err)
	}
	if *printflags {
		printFlags(fs)
		os.Exit(0)
	}
	args := fs.Args()
	if len(args) != 1 || !strings.HasSuffix(args[0], ".cfg") {
		fmt.Fprintf(os.Stderr, `%[1]s enforces the dualcdb resource and concurrency invariants.

Usage:
	%[1]s [packages]               # runs go vet -vettool=%[1]s [packages]
	%[1]s -annotations [packages]  # same, plus GitHub Actions ::error lines
	%[1]s unit.cfg                 # invoked by go vet on one compilation unit
`, progname)
		os.Exit(2)
	}

	// If any per-analyzer enable flag was passed, run just those.
	selected := analyzers
	if anySet(enabled) {
		selected = nil
		for _, a := range analyzers {
			if *enabled[a.Name] {
				selected = append(selected, a)
			}
		}
	}
	os.Exit(runUnit(args[0], selected))
}

// standalone reports whether the invocation is the human-facing form
// (package patterns) rather than the go vet protocol.
func standalone(args []string) bool {
	if len(args) == 0 {
		return false
	}
	for _, a := range args {
		if strings.HasSuffix(a, ".cfg") || strings.HasPrefix(a, "-V") ||
			a == "-flags" || a == "--flags" {
			return false
		}
	}
	return true
}

// reexecGoVet runs `go vet -vettool=<self> args...`. With annotations, it
// also renders every diagnostic go vet relayed on stderr as a GitHub
// Actions ::error line on stdout, so findings surface inline on a pull
// request; the exit code is go vet's either way.
func reexecGoVet(args []string, annotations bool) int {
	self, err := os.Executable()
	if err != nil {
		log.Fatal(err)
	}
	var relayed bytes.Buffer
	cmd := exec.Command("go", append([]string{"vet", "-vettool=" + self}, args...)...)
	cmd.Stdout = os.Stdout
	cmd.Stderr = os.Stderr
	if annotations {
		cmd.Stderr = io.MultiWriter(os.Stderr, &relayed)
	}
	code := 0
	if err := cmd.Run(); err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			log.Fatal(err)
		}
		code = ee.ExitCode()
	}
	if annotations {
		printAnnotations(&relayed)
	}
	return code
}

// diagLine matches one diagnostic as runUnit prints it (go vet passes the
// tool's stderr through, with file names made relative to its working
// directory): "file:line:col: message [dualvet:analyzer]".
var diagLine = regexp.MustCompile(`^(.+?):(\d+):(\d+): (.*) \[dualvet:(\w+)\]$`)

func printAnnotations(r io.Reader) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		m := diagLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		fmt.Printf("::error file=%s,line=%s,col=%s,title=dualvet %s::%s\n",
			strings.TrimPrefix(m[1], "./"), m[2], m[3], m[5], m[4])
	}
}

func anySet(m map[string]*bool) bool {
	for _, v := range m {
		if *v {
			return true
		}
	}
	return false
}

func runUnit(cfgFile string, analyzers []*framework.Analyzer) int {
	cfg, err := readConfig(cfgFile)
	if err != nil {
		log.Fatal(err)
	}
	rec := vetxRecord{ImportPath: cfg.ImportPath}
	if cfg.VetxOnly {
		// Dependency unit outside the patterns: the go command only wants
		// the fact file, and nothing was analyzed to fill it.
		writeVetx(cfg, rec)
		return 0
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				writeVetx(cfg, rec)
				return 0
			}
			log.Fatal(err)
		}
		files = append(files, f)
	}
	tc := &types.Config{
		Importer:  makeImporter(cfg, fset),
		Sizes:     types.SizesFor("gc", build.Default.GOARCH),
		GoVersion: cfg.GoVersion,
	}
	info := framework.NewInfo()
	pkg, err := tc.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			writeVetx(cfg, rec)
			return 0
		}
		log.Fatal(err)
	}

	diags, exported, err := framework.RunPackage(fset, files, pkg, info, analyzers, depSummaries(cfg))
	if err != nil {
		log.Fatal(err)
	}
	rec.Summaries = exported
	writeVetx(cfg, rec)
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s: %s [dualvet:%s]\n", fset.Position(d.Pos), d.Message, d.Analyzer)
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}

// depSummaries decodes and merges the summary banks of every dependency
// vetx record the go command handed us. An unreadable record contributes
// nothing: its functions degrade to unknown callees, which every analyzer
// treats soundly.
func depSummaries(cfg *Config) *dataflow.PackageSummaries {
	deps := make([]string, 0, len(cfg.PackageVetx))
	for dep := range cfg.PackageVetx {
		deps = append(deps, dep)
	}
	sort.Strings(deps)
	merged := &dataflow.PackageSummaries{}
	for _, dep := range deps {
		data, err := os.ReadFile(cfg.PackageVetx[dep])
		if err != nil {
			continue
		}
		var rec vetxRecord
		if json.Unmarshal(data, &rec) == nil {
			merged.Merge(rec.Summaries)
		}
	}
	if merged.Empty() {
		return nil
	}
	return merged
}

// writeVetx persists rec as the unit's fact file for the go command.
func writeVetx(cfg *Config, rec vetxRecord) {
	if cfg.VetxOutput == "" {
		return
	}
	data, err := json.Marshal(rec)
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(cfg.VetxOutput, data, 0o666); err != nil {
		log.Fatal(err)
	}
}

func readConfig(filename string) (*Config, error) {
	data, err := os.ReadFile(filename)
	if err != nil {
		return nil, err
	}
	cfg := new(Config)
	if err := json.Unmarshal(data, cfg); err != nil {
		return nil, fmt.Errorf("cannot decode JSON config file %s: %v", filename, err)
	}
	if len(cfg.GoFiles) == 0 {
		return nil, fmt.Errorf("package has no files: %s", cfg.ImportPath)
	}
	return cfg, nil
}

// makeImporter resolves imports through the export-data files the go
// command listed in the config, exactly as go vet's own driver does.
func makeImporter(cfg *Config, fset *token.FileSet) types.Importer {
	compilerImporter := importer.ForCompiler(fset, cfg.Compiler, func(path string) (io.ReadCloser, error) {
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no package file for %q", path)
		}
		return os.Open(file)
	})
	return importerFunc(func(importPath string) (*types.Package, error) {
		path, ok := cfg.ImportMap[importPath]
		if !ok {
			return nil, fmt.Errorf("can't resolve import %q", importPath)
		}
		return compilerImporter.Import(path)
	})
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// versionFlag implements the -V=full protocol the go command uses to give
// the tool a build-cache identity: one line of the form
// "<path> version devel ... buildID=<content hash>".
type versionFlag struct{}

func (versionFlag) IsBoolFlag() bool { return true }
func (versionFlag) String() string   { return "" }
func (versionFlag) Set(s string) error {
	if s != "full" {
		log.Fatalf("unsupported flag value: -V=%s (use -V=full)", s)
	}
	progname, err := os.Executable()
	if err != nil {
		return err
	}
	f, err := os.Open(progname)
	if err != nil {
		log.Fatal(err)
	}
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		log.Fatal(err)
	}
	f.Close()
	fmt.Printf("%s version devel comments-go-here buildID=%02x\n", progname, string(h.Sum(nil)))
	os.Exit(0)
	return nil
}

func printFlags(fs *flag.FlagSet) {
	type jsonFlag struct {
		Name  string
		Bool  bool
		Usage string
	}
	var flags []jsonFlag
	fs.VisitAll(func(f *flag.Flag) {
		b, ok := f.Value.(interface{ IsBoolFlag() bool })
		flags = append(flags, jsonFlag{f.Name, ok && b.IsBoolFlag(), f.Usage})
	})
	data, err := json.MarshalIndent(flags, "", "\t")
	if err != nil {
		log.Fatal(err)
	}
	os.Stdout.Write(data)
}
