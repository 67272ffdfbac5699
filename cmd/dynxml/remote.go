package main

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"

	"repro/client"
)

const remoteUsage = `usage: dynxml remote [-addr URL] <command> [flags] [args]

commands:
  list                                 list documents
  create <doc> <xml> [scheme]          create a document
  open <doc>                           open (pin) a document
  query [-first] <doc> <path>          evaluate an XPath, print ids+count
  count <doc> <path>                   print the match count only
  explain <doc> <path>                 print the planner's EXPLAIN text
  insert [-seq] <doc> <parent> <pos> <name>   insert one element
  insert-tree [-seq] <doc> <parent> <pos> <fragment>   insert a parsed fragment
  delete <doc> <node>                  delete a subtree
  batch [-seq] <doc> <edits-json>      apply a JSON array of edits
  xml <doc>                            print the serialized document
  sync <doc>                           force a durability sync
  checkpoint <doc>                     checkpoint the journal
  close <doc>                          evict the document
  stats <doc>                          print the stats JSON
  horizon [-min N] [-wait D] <doc>     wait for / print the durable horizon
  watch [-n N] [-timeout D] <doc> <path>   stream notifications as JSON lines

The address defaults to $DYNXML_ADDR, then http://127.0.0.1:8080.
`

// errArgs is a command given the wrong number of arguments.
var errArgs = fmt.Errorf("%w: wrong number of arguments", errUsage)

// remote drives a dynxmld server through the typed client package:
// every request goes to the versioned /v1 surface with a request id
// and the client's retry policy. Commands print their primary result on
// stdout (JSON for structured answers, a bare value under -first/-seq
// so shell scripts can capture it).
func remote(args []string) error {
	fs := flag.NewFlagSet("remote", flag.ContinueOnError)
	fs.Usage = func() { fmt.Fprint(os.Stderr, remoteUsage) }
	addr := fs.String("addr", cmp.Or(os.Getenv("DYNXML_ADDR"), "http://127.0.0.1:8080"), "dynxmld base URL")
	if err := fs.Parse(args); err != nil {
		return fmt.Errorf("%w: %v", errUsage, err)
	}
	if fs.NArg() == 0 {
		fs.Usage()
		return fmt.Errorf("%w: no command", errUsage)
	}
	c, err := client.Dial(*addr)
	if err != nil {
		return err
	}
	err = remoteCmd(c, fs.Arg(0), fs.Args()[1:])
	if errors.Is(err, errUsage) {
		fs.Usage()
	}
	return err
}

// printJSON writes one value as a single JSON line on stdout.
func printJSON(v any) error {
	enc := json.NewEncoder(os.Stdout)
	return enc.Encode(v)
}

func remoteCmd(c *client.Client, cmd string, args []string) error {
	switch cmd {
	case "list":
		list, err := c.List()
		if err != nil {
			return err
		}
		return printJSON(list)
	case "create":
		if len(args) < 2 || len(args) > 3 {
			return errArgs
		}
		scheme := ""
		if len(args) == 3 {
			scheme = args[2]
		}
		doc, err := c.Create(args[0], args[1], scheme)
		if err != nil {
			return err
		}
		return printJSON(map[string]string{"name": doc.Name(), "scheme": doc.Scheme()})
	case "open":
		doc, err := openOne(c, args)
		if err != nil {
			return err
		}
		return printJSON(map[string]string{"name": doc.Name(), "scheme": doc.Scheme()})
	case "query":
		fs := flag.NewFlagSet("query", flag.ExitOnError)
		first := fs.Bool("first", false, "print only the first matching node id")
		_ = fs.Parse(args)
		doc, path, err := docArg(c, fs.Args())
		if err != nil {
			return err
		}
		ids, err := doc.Query(path)
		if err != nil {
			return err
		}
		if *first {
			if len(ids) == 0 {
				return fmt.Errorf("no match for %s", path)
			}
			fmt.Println(ids[0])
			return nil
		}
		return printJSON(map[string]any{"ids": ids, "count": len(ids)})
	case "count", "explain":
		doc, path, err := docArg(c, args)
		if err != nil {
			return err
		}
		var out any
		if cmd == "count" {
			out, err = doc.Count(path)
		} else {
			out, err = doc.Explain(path)
		}
		if err != nil {
			return err
		}
		fmt.Println(out)
		return nil
	case "insert", "insert-tree":
		fs := flag.NewFlagSet(cmd, flag.ExitOnError)
		seqOnly := fs.Bool("seq", false, "print only the ack'd journal sequence")
		_ = fs.Parse(args)
		a := fs.Args()
		if len(a) != 4 {
			return errArgs
		}
		doc, err := c.Open(a[0])
		if err != nil {
			return err
		}
		parent, pos, err := parentPos(a[1], a[2])
		if err != nil {
			return err
		}
		insert := doc.InsertElement
		if cmd == "insert-tree" {
			insert = doc.InsertTree
		}
		ack, err := insert(parent, pos, a[3])
		if err != nil {
			return err
		}
		return printAck(ack, *seqOnly)
	case "delete":
		doc, id, err := docArg(c, args)
		if err != nil {
			return err
		}
		var node int
		if _, err := fmt.Sscanf(id, "%d", &node); err != nil {
			return fmt.Errorf("bad node id %q", id)
		}
		ack, err := doc.Delete(node)
		if err != nil {
			return err
		}
		return printAck(ack, false)
	case "batch":
		fs := flag.NewFlagSet("batch", flag.ExitOnError)
		seqOnly := fs.Bool("seq", false, "print only the ack'd journal sequence")
		_ = fs.Parse(args)
		a := fs.Args()
		if len(a) != 2 {
			return errArgs
		}
		doc, err := c.Open(a[0])
		if err != nil {
			return err
		}
		var edits []client.Edit
		if err := json.Unmarshal([]byte(a[1]), &edits); err != nil {
			return fmt.Errorf("bad edits JSON: %w", err)
		}
		ack, err := doc.Batch(edits)
		if err != nil {
			return err
		}
		return printAck(ack, *seqOnly)
	case "xml", "stats", "sync", "checkpoint", "close":
		doc, err := openOne(c, args)
		if err != nil {
			return err
		}
		switch cmd {
		case "xml":
			xml, err := doc.XML()
			if err == nil {
				fmt.Println(xml)
			}
			return err
		case "stats":
			st, err := doc.Stats()
			if err != nil {
				return err
			}
			return printJSON(st)
		case "sync":
			return doc.Sync()
		case "checkpoint":
			return doc.Checkpoint()
		}
		return doc.Close()
	case "horizon":
		fs := flag.NewFlagSet("horizon", flag.ExitOnError)
		minSeq := fs.Uint64("min", 0, "sequence the horizon must reach")
		wait := fs.Duration("wait", 0, "how long to wait for -min")
		_ = fs.Parse(args)
		doc, err := openOne(c, fs.Args())
		if err != nil {
			return err
		}
		hor, reached, err := doc.FollowHorizon(*minSeq, *wait)
		if err != nil {
			return err
		}
		fmt.Println(hor)
		if !reached {
			return fmt.Errorf("horizon %d below requested %d after %s", hor, *minSeq, *wait)
		}
		return nil
	case "watch":
		fs := flag.NewFlagSet("watch", flag.ExitOnError)
		n := fs.Int("n", 0, "exit after this many notifications (0 = forever)")
		timeout := fs.Duration("timeout", 0, "give up after this long (0 = forever)")
		_ = fs.Parse(args)
		doc, path, err := docArg(c, fs.Args())
		if err != nil {
			return err
		}
		ctx := context.Background()
		if *timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, *timeout)
			defer cancel()
		}
		ch, cancel, err := doc.Watch(ctx, path)
		if err != nil {
			return err
		}
		defer cancel()
		seen := 0
		for {
			select {
			case note, ok := <-ch:
				if !ok {
					return fmt.Errorf("watch stream ended after %d notifications", seen)
				}
				if err := printJSON(note); err != nil {
					return err
				}
				seen++
				if *n > 0 && seen >= *n {
					return nil
				}
			case <-ctx.Done():
				return fmt.Errorf("watch: %d/%d notifications before timeout", seen, *n)
			}
		}
	}
	return fmt.Errorf("%w: unknown command %q", errUsage, cmd)
}

// openOne opens the single <doc> positional argument.
func openOne(c *client.Client, args []string) (*client.Doc, error) {
	if len(args) != 1 {
		return nil, errArgs
	}
	return c.Open(args[0])
}

// docArg opens <doc> and returns it with the argument after it.
func docArg(c *client.Client, args []string) (*client.Doc, string, error) {
	if len(args) != 2 {
		return nil, "", errArgs
	}
	doc, err := c.Open(args[0])
	return doc, args[1], err
}

// parentPos parses the <parent> <pos> argument pair.
func parentPos(p, q string) (int, int, error) {
	var parent, pos int
	if _, err := fmt.Sscanf(p, "%d", &parent); err != nil {
		return 0, 0, fmt.Errorf("bad parent id %q", p)
	}
	if _, err := fmt.Sscanf(q, "%d", &pos); err != nil {
		return 0, 0, fmt.Errorf("bad position %q", q)
	}
	return parent, pos, nil
}

// printAck prints an edit acknowledgement: the full JSON, or just the
// journal sequence under -seq for shell capture.
func printAck(ack client.EditAck, seqOnly bool) error {
	if seqOnly {
		fmt.Println(ack.Seq)
		return nil
	}
	return printJSON(ack)
}
