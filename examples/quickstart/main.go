// Quickstart: compile a five-line FLICK program, deploy it on an in-process
// platform, and exchange messages with it — no external network required.
//
//	go run ./examples/quickstart
//
// The middlebox upper-cases every newline-terminated message, showing the
// whole pipeline: FLICK source → type check → task graph → cooperative
// scheduling → wire traffic.
package main

import (
	"bufio"
	"fmt"
	"log"

	"flick"
)

// program is the FLICK source. `shout` has one bidirectional channel of
// line messages; each line is transformed by the upper() function.
const program = `
type line: record
    line : string

proc shout: (line/line client)
    | client => upper() => client

fun upper: (msg: line) -> (line)
    line(to_upper(msg.line))
`

func main() {
	// Compile: the "line" record binds to the built-in newline-delimited
	// text codec.
	svc, err := flick.CompileService(program, flick.ServiceOptions{
		Codecs: map[string]flick.Codec{"line": flick.LineCodec()},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("compiled process %q: task graph with %d tasks\n",
		svc.Graph.Name, len(svc.Graph.Template.Nodes()))

	// Deploy on an in-process platform over the user-space stack.
	p := flick.NewPlatform(flick.PlatformOptions{Workers: 4, InProcessNet: true})
	defer p.Close()
	deployed, err := p.Deploy(svc, "shout:1", nil)
	if err != nil {
		log.Fatal(err)
	}
	defer deployed.Close()

	// Talk to it.
	conn, err := p.Dial("shout:1")
	if err != nil {
		log.Fatal(err)
	}
	defer conn.Close()

	for _, msg := range []string{"hello flick", "task graphs are neat", "bye"} {
		fmt.Fprintf(conn, "%s\n", msg)
		reply, err := bufio.NewReader(conn).ReadString('\n')
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-22q -> %q\n", msg, reply[:len(reply)-1])
	}
}
