package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"syscall"
	"unsafe"
)

// A vCPU with nothing to run halts, and waking it again is up to the
// hypervisor: on a shared machine that can take milliseconds. A
// request that hands work to a second goroutine then finds the second
// CPU asleep and runs serially, so the same request took either its
// parallel or its serial time depending on how long the machine had
// been idle and on how busy the other tenants kept the host. The
// benchmark therefore keeps every CPU awake for the whole run with one
// spinning thread per CPU under SCHED_IDLE, the policy that runs a
// thread only when no other thread of the machine wants the CPU: the
// program and the load generator preempt the spinners at once, and
// their CPU time is never charged to the program.

// schedIdle is Linux's SCHED_IDLE scheduling policy.
const schedIdle = 5

// startAwake starts this binary as `perfbench awake`.
func startAwake() (*exec.Cmd, io.WriteCloser, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	cmd := exec.Command(exe, "awake")
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, nil, err
	}
	// The child reports once every spinner runs under SCHED_IDLE.
	line, err := bufio.NewReader(stdout).ReadString('\n')
	if err != nil || line != "ready\n" {
		_ = stdin.Close()
		_ = cmd.Wait()
		return nil, nil, fmt.Errorf("keeping the CPUs awake: %q %v", line, err)
	}
	return cmd, stdin, nil
}

// awakeMain spins one SCHED_IDLE thread per CPU until standard input
// closes.
func awakeMain() int {
	ready := make(chan error)
	for i := 0; i < runtime.NumCPU(); i++ {
		go func() {
			runtime.LockOSThread()
			var param [1]int32 // sched_param.sched_priority = 0
			_, _, e := syscall.Syscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param[0])))
			if e != 0 {
				ready <- fmt.Errorf("sched_setscheduler: %w", e)
				return
			}
			ready <- nil
			x := uint64(88172645463325252)
			for {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
			}
		}()
	}
	for i := 0; i < runtime.NumCPU(); i++ {
		if err := <-ready; err != nil {
			fmt.Fprintln(os.Stderr, "perfbench awake:", err)
			return 1
		}
	}
	fmt.Println("ready")
	_, _ = io.Copy(io.Discard, bufio.NewReader(os.Stdin))
	return 0
}
