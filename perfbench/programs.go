package main

import (
	"fmt"
	"math/rand"
	"strconv"

	"dejavu/internal/bytecode"
	"dejavu/internal/workloads"
)

// program is one benchmark input: the built program plus the output the
// benchmark expects from it, computed here in Go. want is empty for
// programs whose output depends on the schedule (the Figure 1 races and
// the random programs); those are checked by record/replay identity only.
type program struct {
	name  string
	prog  *bytecode.Program
	want  string
	image string // .dva path, set by the workloads that load images
}

// service builds variant v (0-3) of one long multithreaded service
// family at about targetEvents VM events. Each variant fixes the thread
// counts, so every seed runs the same structural mix; the seed picks the
// sizes and the minor parameters. The per-family event costs were
// measured once and only steer the size; the reference outputs are exact.
func service(rng *rand.Rand, family string, v, targetEvents int) program {
	switch family {
	case "bank":
		tellers := []int{2, 3, 4, 6}[v]
		accounts := 4 + rng.Intn(13)
		tx := targetEvents / (53 * tellers)
		return program{
			name: fmt.Sprintf("bank-t%d-a%d-x%d", tellers, accounts, tx),
			prog: workloads.Bank(tellers, accounts, tx),
			want: line(int64(100 * accounts)),
		}
	case "prodcons":
		producers, consumers := []int{1, 2, 3, 2}[v], []int{1, 2, 2, 3}[v]
		capacity := 2 + rng.Intn(7)
		items := targetEvents / (124 * producers)
		want := int64(0)
		for p := 0; p < producers; p++ {
			for i := 0; i < items; i++ {
				want += int64(p*1000 + i)
			}
		}
		return program{
			name: fmt.Sprintf("prodcons-p%d-c%d-b%d-i%d", producers, consumers, capacity, items),
			prog: workloads.ProdCons(producers, consumers, capacity, items),
			want: line(want),
		}
	case "philosophers":
		n := []int{3, 5, 6, 8}[v]
		rounds := targetEvents / (78 * n)
		return program{
			name: fmt.Sprintf("philosophers-n%d-r%d", n, rounds),
			prog: workloads.Philosophers(n, rounds),
			want: line(int64(n * rounds)),
		}
	case "server":
		workers := []int{2, 3, 4, 5}[v]
		requests := targetEvents / 156
		return program{
			name: fmt.Sprintf("server-w%d-r%d", workers, requests),
			prog: workloads.Server(workers, requests),
			want: line(int64(requests)),
		}
	}
	panic("unknown family " + family)
}

var serviceFamilies = []string{"server", "prodcons", "bank", "philosophers"}

// registryWant is the reference output of each registry program at its
// default size, for the ones whose output is schedule independent.
func registryWant(name string) string {
	switch name {
	case "bank":
		return line(800)
	case "prodcons":
		want := int64(0)
		for p := 0; p < 2; p++ {
			for i := 0; i < 200; i++ {
				want += int64(p*1000 + i)
			}
		}
		return line(want)
	case "philosophers":
		return line(150)
	case "server":
		return line(60)
	case "sieve":
		return line(primesBelow(2000))
	case "expr":
		return line(exprResult(4000))
	case "sleepy":
		return line(1 + 2 + 3 + 4)
	case "sumlines":
		return line(0) // no input lines
	}
	return ""
}

func primesBelow(n int) int64 {
	composite := make([]bool, n)
	count := int64(0)
	for i := 2; i < n; i++ {
		if composite[i] {
			continue
		}
		count++
		for j := i * i; j < n; j += i {
			composite[j] = true
		}
	}
	return count
}

// exprResult mirrors workloads.Expr's loop: acc = (acc*31 + i*i + 6*i + 7) & 0xffff.
func exprResult(n int) int64 {
	acc := int64(0)
	for i := int64(0); i < int64(n); i++ {
		acc = (acc*31 + i*i + 2*3*i + 7) & 0xffff
	}
	return acc
}

func line(v int64) string { return strconv.FormatInt(v, 10) + "\n" }

// instrs counts the program's instructions over all methods.
func instrs(p *bytecode.Program) int {
	n := 0
	for _, m := range p.Methods {
		n += len(m.Code)
	}
	return n
}
