// Command flickc is the FLICK compiler front end: it parses, type-checks
// and compiles a .flick program, reporting the resulting task graph(s).
//
// Usage:
//
//	flickc [-array name=N]... [-codec type=codec]... [-check] [-dump] program.flick
//
// -array fixes the length of a channel-array parameter (repeatable).
// -codec binds a record type to a built-in codec: memcached, hadoop-kv,
// http-request, http-response or line (repeatable); types whose
// declarations carry complete serialisation annotations need none.
// -check stops after type checking; -dump prints each task graph's tasks,
// their codecs and the port layout. The paper's listings compile with:
//
//	flickc -array backends=2 listing1.flick
//	flickc -array backends=2 -codec cmd=memcached proxy.flick
//	flickc -array mappers=4 -codec kv=hadoop-kv listing3.flick
//	flickc -array backends=2 -codec request=http-request -codec response=http-response httplb.flick
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"flick"
	"flick/internal/compiler"
	"flick/internal/lang"
	"flick/internal/types"
)

type arrayFlags map[string]int

func (a arrayFlags) String() string { return fmt.Sprint(map[string]int(a)) }

func (a arrayFlags) Set(s string) error {
	name, val, ok := strings.Cut(s, "=")
	if !ok {
		return fmt.Errorf("expected name=size, got %q", s)
	}
	n, err := strconv.Atoi(val)
	if err != nil {
		return err
	}
	a[name] = n
	return nil
}

// builtinCodecs names the facade's codecs for the -codec flag.
var builtinCodecs = map[string]func() flick.Codec{
	"memcached":     flick.MemcachedCodec,
	"hadoop-kv":     flick.HadoopKVCodec,
	"http-request":  flick.HTTPRequestCodec,
	"http-response": flick.HTTPResponseCodec,
	"line":          flick.LineCodec,
}

type codecFlags map[string]compiler.CodecPair

func (c codecFlags) String() string { return fmt.Sprint(len(c)) }

func (c codecFlags) Set(s string) error {
	typeName, codecName, ok := strings.Cut(s, "=")
	if !ok {
		return fmt.Errorf("expected type=codec, got %q", s)
	}
	codec, ok := builtinCodecs[codecName]
	if !ok {
		return fmt.Errorf("unknown codec %q (memcached, hadoop-kv, http-request, http-response, line)", codecName)
	}
	c[typeName] = codec()
	return nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "flickc:", err)
		os.Exit(1)
	}
}

// run compiles the program named in args and reports on stdout.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("flickc", flag.ContinueOnError)
	fs.SetOutput(stderr)
	arrays := arrayFlags{}
	codecs := codecFlags{}
	checkOnly := fs.Bool("check", false, "stop after type checking")
	dump := fs.Bool("dump", false, "dump the compiled task graph structure")
	fs.Var(arrays, "array", "channel array size, name=N (repeatable)")
	fs.Var(codecs, "codec", "bind a record type to a built-in codec, type=codec (repeatable)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return fmt.Errorf("usage: flickc [flags] program.flick")
	}
	src, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}

	ast, err := lang.Parse(string(src))
	if err != nil {
		return err
	}
	checked, err := types.Check(ast)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s: %d type(s), %d process(es), %d function(s) — type check OK\n",
		fs.Arg(0), len(checked.Types), len(checked.Procs), len(checked.Funs))
	if *checkOnly {
		return nil
	}

	prog, err := compiler.Compile(string(src), compiler.Config{
		ArraySizes: arrays,
		Codecs:     codecs,
	})
	if err != nil {
		return err
	}

	var procNames []string
	for name := range checked.Procs {
		procNames = append(procNames, name)
	}
	sort.Strings(procNames)
	for _, name := range procNames {
		pg, err := prog.Proc(name)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "\nprocess %s: task graph with %d tasks\n", name, len(pg.Template.Nodes()))
		if *dump {
			dumpGraph(stdout, pg)
		}
	}
	return nil
}

func dumpGraph(w io.Writer, pg *compiler.ProcGraph) {
	for _, n := range pg.Template.Nodes() {
		codec := ""
		if n.Codec != nil {
			codec = " codec=" + n.Codec.FormatName()
		}
		fmt.Fprintf(w, "  task %2d %-7s %s%s\n", n.ID, n.Kind, n.Name, codec)
	}
	var names []string
	for name := range pg.Ports {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "  port %-12s -> indices %v\n", name, pg.Ports[name])
	}
}
