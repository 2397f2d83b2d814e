// Minimal mirror of MuxWise's prefill-job pool: a job released to the
// pool is dead in the releasing block.
package core

type prefillJob struct {
	layersDone int
}

type pool struct {
	free []*prefillJob
}

func (p *pool) Release(j *prefillJob) { p.free = append(p.free, j) }

type Engine struct {
	jobs pool
}

func (e *Engine) releaseJob(j *prefillJob) {
	j.layersDone = 0
	e.jobs.Release(j) // release is the last use: fine
}

func (e *Engine) mergeThenRead(j *prefillJob) int {
	e.releaseJob(j)
	return j.layersDone // want `j is used after being released`
}

func (e *Engine) poolThenRead(j *prefillJob) int {
	e.jobs.Release(j)
	return j.layersDone // want `j is used after being released`
}
