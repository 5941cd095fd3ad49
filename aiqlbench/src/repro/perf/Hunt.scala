package repro.perf

import scala.util.Random

import repro.attack.AttackDataGen

/** One query the benchmark runs: its text, the family it belongs to and,
  * for the paper's session, the values its result must contain.
  */
final case class BenchQuery(
    name: String,
    family: String,
    text: String,
    expect: Map[String, String] = Map.empty)

/** Enterprise-wide hunting queries, drawn from a seeded generator over the
  * trace of [[AttackDataGen]]. No query is scoped to one host:
  *
  *  - `track`: q08-style day-wide forward tracking: the attack's chain on
  *    the attack day, where it is found, and on the last day, where it
  *    matches nothing (the engine's known-empty path); and the same shape
  *    from a drawn day and background processes.
  *  - `sweep`: q19-style `agentid in (…)` queries over an (agent set, day)
  *    footprint that no earlier query of the run used.
  *  - `scan`: all-host aggregates over the whole three-day window: a
  *    `count` join of every file read with one process's writes, and a
  *    q20-style anomaly window with `amt[k]`.
  *
  * Results stay small (aggregates or a few rows), so `collect` is not the
  * cost.
  */
final class Hunt(sf: Double, seed: Long) {

  private val rnd = new Random(seed)
  private val hosts = AttackDataGen.hosts(sf)
  /** (agent set, day) footprints already swept. */
  private val usedSweeps = scala.collection.mutable.Set[(Seq[Int], String)]()
  private var serial = 0
  private var passes = 0

  private val days = Seq("08/01/2023", "08/02/2023", "08/03/2023")
  private val allDays = """(from "08/01/2023 00:00:00" to "08/04/2023 00:00:00")"""
  /** Background processes of ranks 9 to 12 in the generator's zipf pool,
    * whose frequencies are within 20% of each other and which the attack
    * does not use, so that which one a query names barely changes its cost
    * or the size of the relevant set it caches.
    */
  private val exes = Seq("bash", "sshd", "systemd", "cron")
  private val exeOffset = rnd.nextInt(exes.size)

  /** The process the `j`-th drawn pattern of pass `p` names. Each query
    * shape names another process in each of four consecutive passes, so
    * that a timed query never repeats an earlier pass's text and finds its
    * relevant set already cached.
    */
  private def exe(p: Int, j: Int): String = exes((exeOffset + p + j) % exes.size)

  private def pick[A](xs: Seq[A]): A = xs(rnd.nextInt(xs.size))
  private def name(family: String): String = { serial += 1; f"$family%s$serial%03d" }

  /** One pass: seven queries in a fixed order, the same shapes in every
    * pass. Its two sweeps cover disjoint halves of the hosts on footprints
    * no earlier pass swept; passes cycle through the days, so the warm-up
    * and the first two timed passes pin each host's every day once,
    * whatever the seed. Only parameters that leave a query's cost about the
    * same are drawn, so runs with different seeds time the same mix. None
    * once every fresh sweep footprint has been used (at 4 hosts, after 9
    * passes).
    */
  def pass(): Option[Seq[BenchQuery]] = {
    val day = days(passes % days.size)
    passes += 1
    val p = passes - 1
    split(day).map { case (a, b) =>
      Seq(trackAttack(AttackDataGen.Day1), trackAttack(days.last), sweep(a, day), scanJoin(exe(p, 0)),
        trackBackground(exe(p, 1), exe(p, 2)), sweep(b, day), scanAnomaly(exe(p, 3)))
    }
  }

  /** The attack's infection chain (q08) on `day`: found on the attack day,
    * an empty pattern on the other two.
    */
  def trackAttack(day: String): BenchQuery = BenchQuery(name("track"), "track",
    s"""(at "$day")
       |forward
       |proc p1["%apache2%"] read file f1["%info_stealer%"] as evt1
       |proc p1 connect ip i1 as evt2
       |proc p2["%wget%"] connect ip i1 as evt3
       |proc p2 write file f2["%info_stealer%"] as evt4
       |return p1, f1, i1, p2, f2, evt4.ts""".stripMargin)

  /** The same chain shape from drawn background processes. Every pattern
    * matches some events, so this is never the known-empty path.
    */
  def trackBackground(exe1: String, exe2: String): BenchQuery = BenchQuery(name("track"), "track",
    s"""(at "${pick(days)}")
       |forward
       |proc p1["%$exe1"] read file f1 as evt1
       |proc p1 connect ip i1 as evt2
       |proc p2["%$exe2"] connect ip i1 as evt3
       |proc p2 write file f2 as evt4
       |return p1, f1, i1, p2, f2, evt4.ts""".stripMargin)

  /** Two disjoint agent sets of up to half the hosts each, neither swept
    * on `day` before; None when no such pair is left.
    */
  private def split(day: String): Option[(Seq[Int], Seq[Int])] = {
    val k = math.max(1, math.min(10, hosts / 2))
    val drawn = Iterator.fill(10000) {
      val shuffled = rnd.shuffle((1 to hosts).toList)
      (shuffled.take(k).sorted, shuffled.slice(k, 2 * k).sorted)
    }.find { case (a, b) => !usedSweeps((a, day)) && !usedSweeps((b, day)) }
    for ((a, b) <- drawn) usedSweeps ++= Seq((a, day), (b, day))
    drawn
  }

  def sweep(agents: Seq[Int], day: String): BenchQuery = {
    val op = pick(Seq("connect", "write", "read"))
    val ip = s"10.0.${rnd.nextInt(8)}.${rnd.nextInt(250)}"
    BenchQuery(name("sweep"), "sweep",
      s"""(at "$day")
         |agentid in (${agents.mkString(", ")})
         |proc p $op ip i[dst_ip = "$ip"] as evt
         |return evt.agentid, p, evt.ts""".stripMargin)
  }

  def scanJoin(exe: String): BenchQuery = {
    val text =
      s"""$allDays
         |proc p1 read file f1 as evt1
         |proc p1["%$exe"] write file f2 as evt2
         |with evt1 before evt2
         |return count(evt1) as n""".stripMargin
    BenchQuery(name("scan"), "scan", text)
  }

  def scanAnomaly(exe: String): BenchQuery = {
    val text =
      s"""$allDays
         |window = 30 min, step = 10 min
         |proc p["%$exe"] write ip i as evt
         |return p, avg(evt.amount) as amt
         |group by p
         |having amt > ${pick(Seq(8, 10, 12))} * (amt[1] + amt[2])""".stripMargin
    BenchQuery(name("scan"), "scan", text)
  }
}
