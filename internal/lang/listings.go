package lang

// Canonical FLICK sources for the paper's listings, written in this
// implementation's concrete syntax. They are exported because the type
// checker, compiler, applications and examples all exercise them.

// Listing1 is the Memcached cache-router program (ATC '16 Listing 1, long
// version): the cmd record carries the binary-protocol serialisation
// annotations, GETK replies are cached, and requests are hash-routed to the
// backend shard on a miss.
const Listing1 = `
type cmd: record
    opcode : integer {size=1}
    keylen : integer {signed=false, size=2}
    extraslen : integer {signed=false, size=1}
    _ : string {size=3}
    bodylen : integer {signed=false, size=8}
    _ : string {size=12+extraslen}
    key : string {size=keylen}
    _ : string {size=bodylen-extraslen-keylen}

proc memcached: (cmd/cmd client, [cmd/cmd] backends)
    global cache := empty_dict
    | backends => update_cache(cache) => client
    | client => test_cache(client, backends, cache)

fun update_cache: (cache: ref dict<string*cmd>, resp: cmd) -> (cmd)
    if resp.opcode = 0x0c:
        cache[resp.key] := resp
    resp

fun test_cache: (-/cmd client, [-/cmd] backends, cache: ref dict<string*cmd>, req: cmd) -> ()
    if cache[req.key] = None or req.opcode <> 0x0c:
        let target = hash(req.key) mod len(backends)
        req => backends[target]
    else:
        cache[req.key] => client
`

// ListingProxy is the short Memcached proxy of §4.1 (Listing 1 in the ATC
// paper's body): pure hash partitioning, no cache.
const ListingProxy = `
type cmd: record
    key : string

proc Memcached: (cmd/cmd client, [cmd/cmd] backends)
    | backends => client
    | client => target_backend(backends)

fun target_backend: ([-/cmd] backends, req: cmd) -> ()
    let target = hash(req.key) mod len(backends)
    req => backends[target]
`

// Listing3 is the Hadoop data-aggregator program using the foldt primitive
// from §4.3: a parallel tree fold that merges key/value pairs from the
// mapper channels and streams combined pairs to the reducer.
const Listing3 = `
type kv: record
    key : string
    value : string

proc hadoop: ([kv/-] mappers, -/kv reducer)
    foldt combine key_of mappers => reducer

fun combine: (a: kv, b: kv) -> (kv)
    kv(a.key, int_to_string(string_to_int(a.value) + string_to_int(b.value)))

fun key_of: (e: kv) -> (string)
    e.key
`

// ListingHTTPLB is the HTTP load balancer of §6.1: requests are forwarded
// to a backend chosen by a per-connection hash; responses return unchanged.
// Each channel is typed by what it carries: the client sends requests and
// receives responses, the backends the reverse.
const ListingHTTPLB = `
type request: record
    uri : string
    keep_alive : integer

type response: record
    status : integer
    body : string

proc http_lb: (request/response client, [response/request] backends)
    | client => route(backends)
    | backends => client

fun route: ([-/request] backends, req: request) -> ()
    let target = instance_id() mod len(backends)
    req => backends[target]
`
