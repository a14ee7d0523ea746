// Package interrupts implements the signal policy shared by the long-running
// commands (fsprune campaigns, the fsserve daemon): the first SIGINT or
// SIGTERM requests a cooperative stop — the returned channel closes, workers
// drain their in-flight sites, journals flush — and a second signal forces
// immediate exit with status 130, so a wedged drain (a site an engine bug
// keeps running, a hung flush) never leaves the process killable only by
// SIGKILL.
//
// The pre-existing per-command handlers reset the signal disposition after
// the first signal instead, which left a window: a second signal delivered
// between the first one's receipt and the reset landed in the notification
// channel nobody was reading anymore and was silently swallowed. Keeping one
// goroutine receiving for the life of the process closes that window and
// makes the second-signal behavior deterministic.
package interrupts

import (
	"os"
	"os/signal"
	"syscall"
)

// ForcedExitCode is the exit status of a second-signal forced exit, the
// conventional 128+SIGINT.
const ForcedExitCode = 130

// Notify installs the two-stage handler for SIGINT and SIGTERM and returns
// the cooperative-stop channel: closed on the first signal, while a second
// signal exits the process with ForcedExitCode. Call it once, early in main.
func Notify() <-chan struct{} {
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	return notify(sigc, os.Exit)
}

// notify is the testable core of Notify: sigc delivers the signals, exit
// performs the forced termination.
func notify(sigc <-chan os.Signal, exit func(int)) <-chan struct{} {
	stop := make(chan struct{})
	go func() {
		<-sigc
		close(stop)
		<-sigc
		exit(ForcedExitCode)
	}()
	return stop
}
