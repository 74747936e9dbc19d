//go:build !privstm_semrevalidate_race

package core

// semRevalidate enables SemStillValid, the re-check of the stripe samples
// after the commit timestamp. The privstm_semrevalidate_race build compiles
// it out, recreating the historical hole (samples validated before the
// timestamp and never again) for the schedule explorer's positive control:
// with it, `make explore-tds` must FIND a privatizer overtaken by a
// Delete/Put of the bucket it detached.
const semRevalidate = true
